// Quickstart: an embedded 2-shard DPR cluster. Writes complete at memory
// speed, commits arrive asynchronously as prefix guarantees, and an injected
// failure rolls the system back to the last DPR cut — demonstrating exactly
// the decoupling of operation completion from operation commit that the
// paper's §1-2 describe.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"dpr"
)

func main() {
	cluster, err := dpr.NewCluster(dpr.ClusterConfig{
		Shards:             2,
		CheckpointInterval: 20 * time.Millisecond, // heartbeat behind the commit pump
		Storage:            dpr.StorageLocalSSD,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	session, err := cluster.NewSession(dpr.SessionConfig{BatchSize: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()

	// 1. Writes complete immediately (memory speed), before durability.
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := session.Put(key(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	if err := session.Drain(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1000 writes completed in %v (visible to every client, not yet durable)\n",
		time.Since(start))

	// 2. Reads see completed-but-uncommitted state instantly.
	val, found, err := session.Get(key(42))
	if err != nil || !found {
		log.Fatalf("get: %v found=%v", err, found)
	}
	fmt.Printf("read key 42 -> %q\n", val)

	// 3. Commits arrive asynchronously as a prefix.
	p, exceptions := session.Committed()
	fmt.Printf("committed prefix right now: %d ops (exceptions: %d)\n", p, len(exceptions))
	if err := session.WaitAllCommitted(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	p, _ = session.Committed()
	cut, wl := cluster.CurrentCut()
	fmt.Printf("after WaitAllCommitted: %d ops durable; DPR cut = %v (world-line %d)\n", p, cut, wl)

	// 4. Failures roll the cluster back to the last cut and tell each
	// session exactly which prefix survived.
	session.Put(key(1000), []byte("uncommitted-write"))
	session.Drain()
	if _, _, err := cluster.InjectFailure(); err != nil {
		log.Fatal(err)
	}
	for {
		err := session.Put(key(1001), []byte("probe"))
		if err == nil {
			if _, err = session.Client().Session().RefreshCommit(); err == nil {
				time.Sleep(time.Millisecond)
				continue
			}
		}
		var surv *dpr.SurvivalError
		if errors.As(err, &surv) {
			fmt.Printf("failure detected: world-line %d, surviving prefix %d, %d exceptions\n",
				surv.WorldLine, surv.SurvivingPrefix, len(surv.Exceptions))
			break
		}
		log.Fatal(err)
	}
	session.Acknowledge()

	// The committed data survived; the uncommitted tail did not.
	if _, found, _ = session.Get(key(42)); !found {
		log.Fatal("committed key lost!")
	}
	_, found, _ = session.Get(key(1000))
	fmt.Printf("committed key survived; uncommitted key present=%v (expected false)\n", found)
	fmt.Println("quickstart OK")
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
