// dpr-server runs one D-FASTER worker process (paper §5): a FasterKV shard
// wrapped with libDPR, serving the batched wire protocol on a TCP port and
// coordinating through a dpr-finder metadata service. Restarted with -recover
// after a crash (once the finder has begun the recovery round), it recovers
// the shard from its on-disk checkpoint at its position in the recovered cut
// and takes back the partitions the finder still assigns it.
//
// Usage:
//
//	dpr-server -id 1 -listen 127.0.0.1:7801 -finder 127.0.0.1:7700 \
//	           -data /var/lib/dpr/worker1 -partitions 64 -own 0,2,4,...
package main

import (
	"flag"
	"log"
	"strconv"
	"strings"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/storage"
)

// startObs serves /metrics, /debug/dpr, and pprof on addr ("" disables).
func startObs(addr string, w *dfaster.Worker) {
	if addr == "" {
		return
	}
	srv, err := obs.StartServer(addr, nil, func() any { return w.DebugState() })
	if err != nil {
		log.Fatalf("obs server: %v", err)
	}
	log.Printf("obs endpoint on http://%s/metrics (also /debug/dpr, /debug/pprof)", srv.Addr())
}

func main() {
	id := flag.Uint("id", 1, "worker id (unique across the cluster)")
	listen := flag.String("listen", "127.0.0.1:0", "address to serve clients on")
	finderAddr := flag.String("finder", "127.0.0.1:7700", "dpr-finder RPC address")
	dataDir := flag.String("data", "", "durable storage directory (empty = in-memory device)")
	partitions := flag.Int("partitions", 64, "cluster-wide virtual partition count")
	own := flag.String("own", "", "comma-separated partitions to claim on a fresh start (empty = all); -recover takes back what the finder assigns")
	ckpt := flag.Duration("checkpoint", 100*time.Millisecond, "heartbeat behind the commit pump (the pump starts commits as batches execute; the heartbeat catches what it cannot see)")
	memBudget := flag.Int64("mem-budget", 0, "in-memory log budget in bytes (0 = unbounded)")
	hbEvery := flag.Duration("heartbeat", 500*time.Millisecond, "heartbeat interval")
	recover := flag.Bool("recover", false, "restart after a crash, once the finder has logged its recovery round: recover shard state from the data directory at the recovered cut")
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

	workerID := core.WorkerID(*id)
	cfg := dfaster.WorkerConfig{
		ID:                 workerID,
		ListenAddr:         *listen,
		CheckpointInterval: *ckpt,
		Partitions:         *partitions,
		Device:             device,
		KV:                 kv.Config{BucketCount: 1 << 16, MemoryBudget: *memBudget},
	}
	// A fresh shard claims -own; the restart path (§4.1) recovers the shard at
	// its position in the cut the finder's recovery round froze, and takes
	// back what the ownership table still assigns it.
	var w *dfaster.Worker
	if *recover {
		w, err = dfaster.Restart(cfg, meta)
	} else {
		w, err = dfaster.NewWorker(cfg, meta)
	}
	if err != nil {
		log.Fatalf("start worker: %v", err)
	}
	defer w.Stop()
	if *recover {
		log.Printf("worker %d recovered on world-line %d, owning %d partitions",
			workerID, w.DPR().WorldLine(), len(w.OwnedPartitions()))
	} else {
		claim(w, *own, *partitions)
	}
	startObs(*obsAddr, w)
	log.Printf("dpr-server %d serving on %s", workerID, w.Addr())
	heartbeatLoop(meta, workerID, *hbEvery)
}

// claim registers partition ownership: an explicit list, or every partition.
func claim(w *dfaster.Worker, own string, partitions int) {
	var ps []uint64
	if own != "" {
		for _, s := range strings.Split(own, ",") {
			p, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				log.Fatalf("bad partition %q: %v", s, err)
			}
			ps = append(ps, p)
		}
	} else {
		for p := 0; p < partitions; p++ {
			ps = append(ps, uint64(p))
		}
		log.Printf("no -own list; claiming all %d partitions (single-worker default)", partitions)
	}
	if err := w.ClaimPartitions(ps...); err != nil {
		log.Fatalf("claim partitions: %v", err)
	}
}

func heartbeatLoop(meta *metadata.RPCClient, id core.WorkerID, every time.Duration) {
	// Heartbeat immediately so the failure detector knows this worker from
	// its very first moment — a worker that dies before its first ticker
	// fire must still be detected.
	if err := meta.Heartbeat(id); err != nil {
		log.Printf("heartbeat: %v", err)
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		if err := meta.Heartbeat(id); err != nil {
			log.Printf("heartbeat: %v", err)
		}
	}
}
