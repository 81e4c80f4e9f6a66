package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dpr/internal/metadata"
)

// EventKind enumerates fault-schedule events.
type EventKind uint8

const (
	// EvCrashRestart kills a D-FASTER worker, recovers the cluster, and
	// restarts the worker from its checkpoint at the recovery cut.
	EvCrashRestart EventKind = iota
	// EvCrashRestartReadFault is EvCrashRestart with the worker's storage
	// device read-faulting when the restart begins; the device heals after
	// Window, so the restore path must retry until it succeeds.
	EvCrashRestartReadFault
	// EvRollback runs a recovery round without killing anyone (spurious
	// failure detection — the detector timing out a slow worker).
	EvRollback
	// EvSever closes every live client connection to one worker.
	EvSever
	// EvDelay adds per-direction forwarding delay to one worker's traffic
	// for the Window, then clears it.
	EvDelay
	// EvBlackhole silently discards one worker's traffic for the Window,
	// then severs (lost requests and lost replies).
	EvBlackhole
	// EvWriteFaults makes the next N storage writes on one worker fail
	// (checkpoint flush failures; the device heals by itself).
	EvWriteFaults
	// EvMetaLatency adds latency to every metadata access for the Window.
	EvMetaLatency
	// EvJoin activates the spare seat: a fresh worker joins the live cluster
	// and every permanent member donates an even share of its partitions.
	// Asynchronous, so later faults land mid-handover.
	EvJoin
	// EvLeave drains the spare seat — everything it owns migrates back to
	// the permanent members — then stops the worker and removes the member.
	EvLeave
	// EvMigrate moves half of one permanent member's partitions to another
	// live member (the spare when it is up), mid-traffic. Asynchronous: a
	// following EvCrashRestart on the same slot is the
	// crash-the-donor-mid-stream scenario.
	EvMigrate
	// EvCompact runs log compaction on one D-FASTER worker's store, up to its
	// read-only boundary and as far as the committed cut allows, so crashes
	// and rollbacks land on stores whose log prefix has been rewritten — the
	// store's own compactor would not start on logs this small.
	EvCompact

	evKinds
)

func (k EventKind) String() string {
	switch k {
	case EvCrashRestart:
		return "crash-restart"
	case EvCrashRestartReadFault:
		return "crash-restart+read-faults"
	case EvRollback:
		return "rollback-round"
	case EvSever:
		return "sever"
	case EvDelay:
		return "delay"
	case EvBlackhole:
		return "blackhole"
	case EvWriteFaults:
		return "storage-write-faults"
	case EvMetaLatency:
		return "metadata-latency"
	case EvJoin:
		return "join-rebalance"
	case EvLeave:
		return "drain-leave"
	case EvMigrate:
		return "migrate"
	case EvCompact:
		return "compact"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one step of a fault schedule.
type Event struct {
	Kind EventKind
	// Slot is the target worker slot (ignored by cluster-wide events).
	Slot int
	// Gap is the pause before the event fires (traffic runs throughout).
	Gap time.Duration
	// Window is how long the fault stays applied (windowed faults).
	Window time.Duration
	// Amount is the fault parameter: added latency for EvDelay/EvMetaLatency,
	// failed-write count for EvWriteFaults.
	Amount time.Duration
	N      int
}

func (e Event) String() string {
	s := fmt.Sprintf("+%-5s %-26s", e.Gap.Round(time.Millisecond), e.Kind)
	switch e.Kind {
	case EvRollback, EvMetaLatency, EvJoin, EvLeave:
	default:
		s += fmt.Sprintf(" slot=%d", e.Slot)
	}
	switch e.Kind {
	case EvDelay, EvMetaLatency:
		s += fmt.Sprintf(" delay=%s window=%s", e.Amount, e.Window)
	case EvBlackhole, EvCrashRestartReadFault:
		s += fmt.Sprintf(" window=%s", e.Window)
	case EvWriteFaults:
		s += fmt.Sprintf(" n=%d", e.N)
	}
	return s
}

// Schedule is a reproducible fault scenario: everything derives from Seed.
type Schedule struct {
	Seed   int64
	Finder metadata.FinderKind
	Events []Event
}

// String renders the schedule for failure reports; a failing run dumps this
// alongside the seed so the exact scenario replays with CHAOS_SEED=<seed>.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d finder=%d events=%d (replay: CHAOS_SEED=%d go test ./internal/chaos -run Chaos)\n",
		s.Seed, s.Finder, len(s.Events), s.Seed)
	for i, e := range s.Events {
		fmt.Fprintf(&b, "  [%02d] %s\n", i, e)
	}
	return b.String()
}

// FinderFor derives the finder under test from the seed, so the seed corpus
// covers all three cut-finding algorithms.
func FinderFor(seed int64) metadata.FinderKind {
	switch seed % 3 {
	case 0:
		return metadata.FinderExact
	case 1:
		return metadata.FinderApproximate
	default:
		return metadata.FinderHybrid
	}
}

// Generate derives a fault schedule from a seed. dfasterSlots worker slots
// are kill/restart candidates; totalSlots slots take network faults.
func Generate(seed int64, events, dfasterSlots, totalSlots int) Schedule {
	return generate(seed, events, dfasterSlots, totalSlots, false)
}

// GenerateElastic derives a schedule that interleaves elastic membership —
// spare-seat join/leave and live migrations — with the same fault kinds, so
// crashes, severs, and metadata latency land mid-handover. The first event
// is always a join: the membership machinery engages even in short runs.
// Reproduce a red seed with CHAOS_ELASTIC=1 CHAOS_SEED=<seed>.
func GenerateElastic(seed int64, events, dfasterSlots, totalSlots int) Schedule {
	return generate(seed, events, dfasterSlots, totalSlots, true)
}

func generate(seed int64, events, dfasterSlots, totalSlots int, elastic bool) Schedule {
	rng := rand.New(rand.NewSource(seed))
	compactions := rand.New(rand.NewSource(seed ^ 0x636f6d70616374)) // "compact"
	sch := Schedule{Seed: seed, Finder: FinderFor(seed)}
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond
	}
	// Weighted kinds: crashes and severs dominate — they are where the
	// invariants earn their keep.
	weighted := []EventKind{
		EvCrashRestart, EvCrashRestart, EvCrashRestart,
		EvCrashRestartReadFault,
		EvRollback,
		EvSever, EvSever, EvSever,
		EvDelay, EvDelay,
		EvBlackhole, EvBlackhole,
		EvWriteFaults, EvWriteFaults,
		EvMetaLatency, EvMetaLatency,
	}
	if elastic {
		weighted = append(weighted,
			EvJoin, EvJoin,
			EvLeave,
			EvMigrate, EvMigrate, EvMigrate,
		)
	}
	for i := 0; i < events; i++ {
		ev := Event{
			Kind: weighted[rng.Intn(len(weighted))],
			Gap:  ms(20, 60),
		}
		if elastic && i == 0 {
			ev.Kind = EvJoin
		}
		switch ev.Kind {
		case EvCrashRestart:
			ev.Slot = rng.Intn(dfasterSlots)
		case EvCrashRestartReadFault:
			ev.Slot = rng.Intn(dfasterSlots)
			ev.Window = ms(10, 25)
		case EvSever:
			ev.Slot = rng.Intn(totalSlots)
		case EvDelay:
			ev.Slot = rng.Intn(totalSlots)
			ev.Amount = ms(1, 4)
			ev.Window = ms(10, 30)
		case EvBlackhole:
			ev.Slot = rng.Intn(totalSlots)
			ev.Window = ms(10, 25)
		case EvWriteFaults:
			ev.Slot = rng.Intn(dfasterSlots)
			ev.N = 1 + rng.Intn(4)
		case EvMetaLatency:
			ev.Amount = ms(1, 3)
			ev.Window = ms(15, 40)
		case EvMigrate:
			ev.Slot = rng.Intn(dfasterSlots)
		}
		sch.Events = append(sch.Events, ev)
		// Compactions come from a generator of their own, so the faults above
		// are the ones this seed has always produced.
		if compactions.Intn(2) == 0 {
			sch.Events = append(sch.Events, Event{
				Kind: EvCompact,
				Slot: compactions.Intn(dfasterSlots),
				Gap:  time.Duration(5+compactions.Intn(16)) * time.Millisecond,
			})
		}
	}
	return sch
}

// Execute replays a schedule over the cluster. After the last event it
// clears every fault and runs one final recovery round, as a schedule event
// in its own right: every run ends by checking a rollback of whatever the
// faults left behind. Settling does not depend on it — an operation a network
// fault stranded is abandoned by its client (a commit exception of unknown
// fate, §5.4) the moment the connection dies, not held PENDING until the next
// recovery.
func (h *Harness) Execute(sch Schedule, logf func(format string, args ...any)) error {
	h.logf = logf
	for i, ev := range sch.Events {
		time.Sleep(ev.Gap)
		if logf != nil {
			logf("chaos: [%02d] %s", i, ev)
		}
		slot := h.slots[ev.Slot%len(h.slots)]
		switch ev.Kind {
		case EvCrashRestart:
			if err := h.CrashRestart(ev.Slot); err != nil {
				return fmt.Errorf("event %d (%s): %w", i, ev, err)
			}
		case EvCrashRestartReadFault:
			slot.flaky.FailReads(true)
			timer := time.AfterFunc(ev.Window, func() { slot.flaky.FailReads(false) })
			err := h.CrashRestart(ev.Slot)
			timer.Stop()
			slot.flaky.FailReads(false)
			if err != nil {
				return fmt.Errorf("event %d (%s): %w", i, ev, err)
			}
		case EvRollback:
			if _, _, err := h.mgr.OnFailure(); err != nil {
				return fmt.Errorf("event %d (%s): %w", i, ev, err)
			}
		case EvSever:
			slot.proxy.SeverAll()
		case EvDelay:
			slot.proxy.SetDelay(ev.Amount)
			time.Sleep(ev.Window)
			slot.proxy.SetDelay(0)
		case EvBlackhole:
			slot.proxy.SetBlackhole(true)
			time.Sleep(ev.Window)
			slot.proxy.SetBlackhole(false)
			slot.proxy.SeverAll()
		case EvWriteFaults:
			slot.flaky.FailNextWrites(ev.N)
		case EvMetaLatency:
			h.svc.setLatency(ev.Amount)
			time.Sleep(ev.Window)
			h.svc.setLatency(0)
		case EvJoin:
			h.JoinSpare()
		case EvLeave:
			h.LeaveSpare()
		case EvMigrate:
			h.MigrateSlot(ev.Slot)
		case EvCompact:
			h.slotMu.Lock()
			df := slot.df
			h.slotMu.Unlock()
			if df == nil {
				continue
			}
			copied, reclaimed, err := df.Store().Compact(df.Store().TailAddress())
			h.logdbg("chaos: compacted slot %d: %d records moved, %d bytes dropped, begin %d, held to version %d (%v)",
				ev.Slot, copied, reclaimed, df.Store().BeginAddress(), df.Store().CommittedVersion(), err)
		}
	}
	h.clearFaults()
	// Elastic operations converge fault-free; wait them out before the final
	// recovery round so the round runs over settled membership. Handover
	// aborts along the way were chaos-normal; only cluster-wedging failures
	// (a drained seat that could not leave) surface here.
	h.WaitElastic()
	if errs := h.takeElasticErrs(); len(errs) > 0 {
		return fmt.Errorf("elastic membership: %s", strings.Join(errs, "; "))
	}
	wl, cut, err := h.mgr.OnFailure()
	if err != nil {
		return fmt.Errorf("final recovery round: %w", err)
	}
	h.logdbg("chaos: final recovery wl=%d cut=%v", wl, cut)
	return nil
}
