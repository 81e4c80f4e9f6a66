// dpr-server runs one D-FASTER worker process (paper §5): a FasterKV shard
// wrapped with libDPR, serving the batched wire protocol on a TCP port and
// coordinating through a dpr-finder metadata service. On restart after a
// crash it recovers the shard from its on-disk checkpoint at the position
// the DPR cut dictates.
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
	own := flag.String("own", "", "comma-separated partitions to claim (empty = id-strided)")
	ckpt := flag.Duration("checkpoint", 100*time.Millisecond, "heartbeat behind the commit pump (the pump starts commits as batches execute; the heartbeat catches what it cannot see)")
	memBudget := flag.Int64("mem-budget", 0, "in-memory log budget in bytes (0 = unbounded)")
	hbEvery := flag.Duration("heartbeat", 500*time.Millisecond, "heartbeat interval")
	recover := flag.Bool("recover", false, "recover shard state from the data directory")
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
	kvCfg := kv.Config{BucketCount: 1 << 18, MemoryBudget: *memBudget}

	// A fresh shard, or the restart path (§4.1): the cluster manager restarts
	// failed servers and restores them to their latest guaranteed checkpoint;
	// the DPR cut tells us which version that is.
	var store *kv.Store
	if *recover {
		cut, _, _, err := meta.State()
		if err != nil {
			log.Fatalf("fetch cut for recovery: %v", err)
		}
		target := cut.Get(workerID)
		log.Printf("recovering worker %d to version %d", workerID, target)
		if store, err = kv.Recover(device, kvCfg, target); err != nil {
			log.Fatalf("recover: %v", err)
		}
	} else {
		store = kv.NewStore(device, kvCfg)
	}
	w, err := dfaster.AdoptWorker(dfaster.WorkerConfig{
		ID:                 workerID,
		ListenAddr:         *listen,
		CheckpointInterval: *ckpt,
		Partitions:         *partitions,
		Device:             device,
		KV:                 kvCfg,
	}, store, meta)
	if err != nil {
		log.Fatalf("start worker: %v", err)
	}
	defer w.Stop()
	claim(w, *own, *partitions, int(*id))
	startObs(*obsAddr, w)
	log.Printf("dpr-server %d serving on %s", workerID, w.Addr())
	heartbeatLoop(meta, workerID, *hbEvery)
}

// claim registers partition ownership: an explicit list, or every partition
// congruent to id-1 modulo the worker count heuristic (strided default).
func claim(w *dfaster.Worker, own string, partitions, id int) {
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
		// Strided default for homogeneous launches: worker k of n claims
		// partitions ≡ k-1 (mod n) once all workers have registered. With
		// a single worker this claims everything.
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
