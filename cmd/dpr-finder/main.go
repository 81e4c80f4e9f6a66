// dpr-finder hosts the DPR metadata services (paper §5.3) for a
// multi-process deployment: the DPR table and cut finder (§3.3-3.4), cluster
// membership, key ownership, and the recovery coordinator (§4.1). Workers
// (dpr-server) and clients (dpr-cli) connect over net/rpc.
//
// Failure handling: workers heartbeat periodically; when one goes silent the
// finder runs cluster.Manager's recovery round with it named down: freeze DPR
// progress, assign the next world-line, wait until every other registered
// worker has rolled itself back and acknowledged, and resume progress. The
// failed worker comes back with dpr-server -recover.
//
// Usage:
//
//	dpr-finder -listen 127.0.0.1:7700 -finder approximate -hb-timeout 2s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"dpr/internal/cluster"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/storage"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7700", "address to serve the metadata RPC on")
	finderKind := flag.String("finder", "approximate", "cut algorithm: exact | approximate | hybrid")
	latency := flag.Duration("latency", 0, "injected per-call latency (simulates a remote SQL DB)")
	dataDir := flag.String("data", "", "directory for durable metadata snapshots (empty = memory only)")
	hbCheck := flag.Duration("hb-check", 500*time.Millisecond, "heartbeat scan interval")
	hbTimeout := flag.Duration("hb-timeout", 2*time.Second, "heartbeat timeout before a worker is declared failed")
	obsAddr := flag.String("obs-addr", "", "HTTP introspection address for /metrics, /debug/dpr, /debug/pprof (empty disables)")
	flag.Parse()

	var kind metadata.FinderKind
	switch *finderKind {
	case "exact":
		kind = metadata.FinderExact
	case "hybrid":
		kind = metadata.FinderHybrid
	case "approximate":
		kind = metadata.FinderApproximate
	default:
		fmt.Fprintf(os.Stderr, "unknown finder %q\n", *finderKind)
		os.Exit(2)
	}

	cfg := metadata.Config{Finder: kind, AccessLatency: *latency}
	if *dataDir != "" {
		dev, err := storage.NewFileDevice(*dataDir)
		if err != nil {
			log.Fatalf("open data dir: %v", err)
		}
		defer dev.Close()
		cfg.Device = dev
	}
	store := metadata.NewStore(cfg)
	svc, ln, err := metadata.Serve(store, *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("dpr-finder serving on %s (finder=%s)", ln.Addr(), kind)
	if *obsAddr != "" {
		osrv, err := obs.StartServer(*obsAddr, nil, func() any { return store.DebugState() })
		if err != nil {
			log.Fatalf("obs server: %v", err)
		}
		log.Printf("obs endpoint on http://%s/metrics (also /debug/dpr, /debug/pprof)", osrv.Addr())
	}

	// Failure detection: the heartbeat table names the workers that went
	// silent, and the cluster manager's round recovers the rest of the cluster
	// around them (every live dpr-server rolls itself back from the finder's
	// world-line and acks).
	mgr := cluster.NewManager(store)
	ticker := time.NewTicker(*hbCheck)
	defer ticker.Stop()
	for range ticker.C {
		silent := svc.Silent(*hbTimeout)
		if len(silent) == 0 {
			continue
		}
		log.Printf("workers failed (no heartbeat): %v — beginning recovery", silent)
		start := time.Now()
		wl, cut, err := mgr.OnFailure(silent...)
		if err != nil {
			log.Printf("recovery into world-line %d: %v", wl, err)
			continue
		}
		log.Printf("recovery into world-line %d (cut %v) complete after %v; DPR progress resumed",
			wl, cut, time.Since(start).Round(time.Millisecond))
	}
}
