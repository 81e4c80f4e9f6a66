// dredis-server runs one D-Redis shard (paper §6): an unmodified
// redisclone instance wrapped by the libDPR proxy, serving the batched wire
// protocol and coordinating through a dpr-finder. It demonstrates that the
// same finder, clients, and recovery machinery drive a completely different
// StateObject implementation — snapshot-based commits and restart-based
// restores instead of FASTER's CPR.
//
// Usage:
//
//	dredis-server -id 1 -listen 127.0.0.1:7901 -finder 127.0.0.1:7700
package main

import (
	"flag"
	"log"
	"time"

	"dpr/internal/core"
	"dpr/internal/dredis"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/redisclone"
	"dpr/internal/storage"
)

func main() {
	id := flag.Uint("id", 1, "worker id (unique across the cluster)")
	listen := flag.String("listen", "127.0.0.1:0", "address to serve clients on")
	finderAddr := flag.String("finder", "127.0.0.1:7700", "dpr-finder RPC address")
	dataDir := flag.String("data", "", "durable storage directory (empty = in-memory device)")
	ckpt := flag.Duration("checkpoint", 100*time.Millisecond, "heartbeat behind the commit pump (the pump starts a BGSAVE as batches execute; the heartbeat catches what it cannot see)")
	aofMode := flag.String("aof", "off", "append-only file: off | always | everysec")
	hbEvery := flag.Duration("heartbeat", 500*time.Millisecond, "heartbeat interval")
	obsAddr := flag.String("obs-addr", "", "HTTP introspection address for /metrics, /debug/dpr, /debug/pprof (empty disables)")
	flag.Parse()

	meta, err := metadata.Dial(*finderAddr)
	if err != nil {
		log.Fatalf("dial finder: %v", err)
	}
	defer meta.Close()

	var device storage.Device
	if *dataDir != "" {
		fd, err := storage.NewFileDevice(*dataDir)
		if err != nil {
			log.Fatalf("open data dir: %v", err)
		}
		defer fd.Close()
		device = fd
	} else {
		device = storage.NewNull()
	}

	var aof redisclone.AOFMode
	switch *aofMode {
	case "always":
		aof = redisclone.AOFAlways
	case "everysec":
		aof = redisclone.AOFEverySec
	case "off":
		aof = redisclone.AOFOff
	default:
		log.Fatalf("unknown -aof mode %q", *aofMode)
	}

	w, err := dredis.NewWorker(dredis.WorkerConfig{
		ID:                 core.WorkerID(*id),
		ListenAddr:         *listen,
		CheckpointInterval: *ckpt,
		Device:             device,
		AOF:                aof,
	}, meta)
	if err != nil {
		log.Fatalf("start worker: %v", err)
	}
	defer w.Stop()
	if *obsAddr != "" {
		srv, err := obs.StartServer(*obsAddr, nil, func() any { return w.DebugState() })
		if err != nil {
			log.Fatalf("obs server: %v", err)
		}
		log.Printf("obs endpoint on http://%s/metrics (also /debug/dpr, /debug/pprof)", srv.Addr())
	}
	log.Printf("dredis-server %d serving on %s", *id, w.Addr())

	// Heartbeat immediately, then on the interval (see dpr-server).
	if err := meta.Heartbeat(core.WorkerID(*id)); err != nil {
		log.Printf("heartbeat: %v", err)
	}
	t := time.NewTicker(*hbEvery)
	defer t.Stop()
	for range t.C {
		if err := meta.Heartbeat(core.WorkerID(*id)); err != nil {
			log.Printf("heartbeat: %v", err)
		}
	}
}
