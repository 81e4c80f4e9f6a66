package bench

import (
	"errors"
	"fmt"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/metadata"
	"dpr/internal/stats"
	"dpr/internal/wire"
	"dpr/internal/workload"
)

// Fig16 regenerates Figure 16 (impact of recovery on throughput): a
// time-series of completed, committed, and aborted operations per second
// while failures are injected — one mid-run, then two in short succession
// (the second while the system is still recovering from the first), exactly
// the §7.4 scenario. The paper runs 45s with failures at 15s and 30s; the
// schedule here scales with opt.Duration (failures at 1/3 and 2/3).
func Fig16(opt Options) error {
	opt = opt.withDefaults()
	total := 3 * opt.Duration // three phases
	tick := max(total/40, 50*time.Millisecond)
	bc, err := buildCluster(clusterSpec{
		shards: 2, ckptEvery: 50 * time.Millisecond,
		backend: BackendLocalSSD, finder: metadata.FinderApproximate,
	})
	if err != nil {
		return err
	}
	defer bc.close()

	var completedC, committedC, abortedC stats.Counter
	var series *stats.TimeSeries
	_, err = measure(cell{threads: 4, duration: total,
		newThread: func(ci int, done dfaster.OpCallback) (thread, error) {
			return bc.recoveringSession(opt, ci, func(r wire.OpResult) {
				done(r)
				if r.Status != wire.StatusError {
					completedC.Add(1)
				}
			}, &committedC, &abortedC)
		},
		// Failure schedule: one failure at 1/3, two nested at 2/3.
		window: func(wait func(time.Duration) error) error {
			series = stats.NewTimeSeries(tick,
				[]string{"completed/s", "committed/s", "aborted/s"},
				[]*stats.Counter{&completedC, &committedC, &abortedC})
			defer series.Stop()
			for _, d := range []time.Duration{total / 3, total / 3, 2 * tick} { // the last: mid-recovery
				if err := wait(d); err != nil {
					return err
				}
				if _, _, err := bc.mgr.OnFailure(); err != nil {
					return err
				}
			}
			return wait(total / 3)
		}})
	if err != nil {
		return err
	}
	header(opt.Out, fmt.Sprintf(
		"Figure 16: recovery timeline (failures at %v and %v/%v; tick %v)",
		total/3, 2*total/3, 2*total/3+2*tick, tick))
	fmt.Fprint(opt.Out, series.Render())
	fmt.Fprintf(opt.Out, "recoveries completed: %d\n", bc.mgr.Recoveries())
	fmt.Fprintf(opt.Out, "operations aborted: %d\n", abortedC.Load())
	return nil
}

// recoveringSession is one Fig 16 client: it counts the operations the
// committed prefix covers and those a rollback aborts, acknowledges each
// rollback and carries on, and replaces its client after any other error.
func (bc *benchCluster) recoveringSession(opt Options, ci int, done dfaster.OpCallback, committedC, abortedC *stats.Counter) (thread, error) {
	gen := workload.NewGenerator(workload.Config{
		Keys: opt.Keys, ReadFraction: 0.5, Dist: workload.Zipfian,
		Theta: 0.99, Seed: int64(ci) * 13,
	})
	// high is the highest sequence number the session has issued. LastSeq
	// cannot stand in for it: by the time a SurvivalError surfaces, the
	// session has already taken back the numbers past the surviving prefix.
	var high uint64
	newClient := func() (*dfaster.Client, error) {
		high = 0
		return dfaster.NewClient(dfaster.ClientConfig{
			Partitions: bc.partitions, BatchSize: 64, Window: 1024, Relaxed: true,
			OnSend: func(seqStart uint64, n int) { high = seqStart + uint64(n) - 1 },
		}, bc.meta)
	}
	client, err := newClient()
	if err != nil {
		return thread{}, err
	}
	lastPrefix := uint64(0)
	lastPoll := time.Now()
	step := func(int) error {
		op := gen.Next()
		var err error
		if op.Kind == workload.OpRead {
			err = client.Read(op.Key[:], done)
		} else {
			v := workload.Value8(op.Key)
			err = client.Upsert(op.Key[:], v[:], done)
		}
		if err == nil && time.Since(lastPoll) > 3*time.Millisecond {
			lastPoll = time.Now()
			_, err = client.Session().RefreshCommit()
			if err == nil {
				p, _ := client.Committed()
				if p > lastPrefix {
					committedC.Add(p - lastPrefix)
					lastPrefix = p
				}
			}
		}
		if err == nil {
			return nil
		}
		var surv *core.SurvivalError
		if errors.As(err, &surv) {
			committed, aborted := rollbackCounts(lastPrefix, high, surv)
			committedC.Add(committed)
			abortedC.Add(aborted)
			client.Acknowledge()
			lastPrefix, high = surv.SurvivingPrefix, surv.SurvivingPrefix
			return nil
		}
		// Transport or transient error: rebuild the client.
		client.Close()
		lastPrefix = 0
		client, err = newClient()
		return err
	}
	return thread{step: step, finish: func() error {
		if client != nil {
			client.Close()
		}
		return nil
	}}, nil
}

// rollbackCounts splits what a rollback decided for a session that had counted
// its operations up to lastPrefix committed and had issued up to high: the
// surviving prefix's new operations committed, except its exceptions, which
// aborted like everything issued past it.
func rollbackCounts(lastPrefix, high uint64, surv *core.SurvivalError) (committed, aborted uint64) {
	if surv.SurvivingPrefix > lastPrefix {
		committed = surv.SurvivingPrefix - lastPrefix
	}
	for _, seq := range surv.Exceptions {
		if seq > lastPrefix {
			committed--
			aborted++
		}
	}
	if high > surv.SurvivingPrefix {
		aborted += high - surv.SurvivingPrefix
	}
	return committed, aborted
}
