package dpr_test

import (
	"errors"
	"fmt"
	"time"

	"dpr"
)

// Example demonstrates the core DPR experience: operations complete at
// memory speed, commits arrive asynchronously, and failures surface the
// exact surviving prefix.
func Example() {
	cluster, err := dpr.NewCluster(dpr.ClusterConfig{
		Shards:             2,
		CheckpointInterval: 10 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	session, err := cluster.NewSession(dpr.SessionConfig{BatchSize: 4})
	if err != nil {
		panic(err)
	}
	defer session.Close()

	// Writes complete immediately; durability arrives lazily.
	session.Put([]byte("user:42"), []byte("alice"))
	val, found, _ := session.Get([]byte("user:42"))
	fmt.Printf("visible before commit: %v %q\n", found, val)

	// Wait for the asynchronous prefix commit.
	if err := session.WaitAllCommitted(5 * time.Second); err != nil {
		panic(err)
	}
	prefix, exceptions := session.Committed()
	fmt.Printf("committed prefix covers %d ops (%d exceptions)\n", prefix, len(exceptions))

	// Output:
	// visible before commit: true "alice"
	// committed prefix covers 2 ops (0 exceptions)
}

// Example_failureHandling shows how an application reacts to a failure: the
// next interaction returns a *dpr.SurvivalError naming the exact prefix that
// survived; the application acknowledges and continues on the new
// world-line.
func Example_failureHandling() {
	cluster, err := dpr.NewCluster(dpr.ClusterConfig{
		Shards:             1,
		CheckpointInterval: 5 * time.Millisecond,
		// A commit is one device write away: on storage with a 2 ms write,
		// the failure below lands while "volatile" is still being sealed.
		Storage: dpr.StorageCloudSSD,
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()
	session, err := cluster.NewSession(dpr.SessionConfig{BatchSize: 1})
	if err != nil {
		panic(err)
	}
	defer session.Close()

	session.Put([]byte("durable"), []byte("yes"))
	session.WaitAllCommitted(5 * time.Second)
	session.Put([]byte("volatile"), []byte("maybe")) // not yet committed
	session.Drain()

	cluster.InjectFailure()

	for {
		err := session.Put([]byte("probe"), []byte("x"))
		if err == nil {
			if _, err = session.Client().Session().RefreshCommit(); err == nil {
				time.Sleep(time.Millisecond)
				continue
			}
		}
		var surv *dpr.SurvivalError
		if errors.As(err, &surv) {
			fmt.Printf("survived up to op %d on world-line %d\n",
				surv.SurvivingPrefix, surv.WorldLine)
			break
		}
		panic(err)
	}
	session.Acknowledge()

	_, durableFound, _ := session.Get([]byte("durable"))
	_, volatileFound, _ := session.Get([]byte("volatile"))
	fmt.Printf("durable=%v volatile=%v\n", durableFound, volatileFound)

	// Output:
	// survived up to op 1 on world-line 1
	// durable=true volatile=false
}
