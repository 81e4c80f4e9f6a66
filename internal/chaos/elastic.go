package chaos

// Elastic membership under chaos: one spare cluster seat joins and leaves
// the live cluster mid-schedule, and live migrations move partitions between
// members — all while the ordinary fault schedule (crashes, severs,
// blackholes, storage faults, metadata latency) keeps firing. Elastic
// operations run asynchronously so those faults land mid-handover: a crash
// of the migration donor mid-stream is the seed class this file exists to
// produce. They are single-flight — the protocol under test is one handover
// at a time; the overlap comes from the fault schedule, not from racing
// coordinators.
//
// Failure policy: an aborted handover is chaos-normal (the coordinator's
// abort path restores donor ownership; the next elastic event retries the
// balance) and is only logged. What gets recorded as a hard failure is
// anything that would wedge the cluster — a drained seat that cannot leave
// keeps its finder row and gates the cut at its last version forever.

import (
	"fmt"
	"sort"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/kv"
	"dpr/internal/migration"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// elasticMigrateTimeout bounds one handover attempt. Generous relative to
// the checkpoint cadence: the donor must seal a boundary and wait for the
// cut to cover it while recovery rounds and metadata latency stall reports.
const elasticMigrateTimeout = 5 * time.Second

// startElastic runs f asynchronously unless another elastic operation is
// still in flight; reports whether f was started.
func (h *Harness) startElastic(name string, f func()) bool {
	h.elasticMu.Lock()
	if h.elasticBusy {
		h.elasticMu.Unlock()
		h.logdbg("chaos: %s skipped: elastic operation already in flight", name)
		return false
	}
	h.elasticBusy = true
	h.elasticMu.Unlock()
	h.elasticWG.Add(1)
	go func() {
		defer func() {
			h.elasticMu.Lock()
			h.elasticBusy = false
			h.elasticMu.Unlock()
			h.elasticWG.Done()
		}()
		f()
	}()
	return true
}

// WaitElastic blocks until no elastic operation is in flight.
func (h *Harness) WaitElastic() { h.elasticWG.Wait() }

// elasticFail records a cluster-wedging elastic failure (surfaced by
// Execute's epilogue).
func (h *Harness) elasticFail(format string, args ...any) {
	h.elasticMu.Lock()
	h.elasticErrs = append(h.elasticErrs, fmt.Sprintf(format, args...))
	h.elasticMu.Unlock()
}

func (h *Harness) takeElasticErrs() []string {
	h.elasticMu.Lock()
	defer h.elasticMu.Unlock()
	errs := h.elasticErrs
	h.elasticErrs = nil
	return errs
}

// liveDF snapshots a slot's current worker process (nil mid-restart).
func (h *Harness) liveDF(slot *workerSlot) *dfaster.Worker {
	h.slotMu.Lock()
	defer h.slotMu.Unlock()
	return slot.df
}

// spareSeat returns the spare slot and whether it is currently a member.
func (h *Harness) spareSeat() (*workerSlot, bool) {
	h.elasticMu.Lock()
	defer h.elasticMu.Unlock()
	return h.spare, h.spareUp
}

// JoinSpare asynchronously activates the spare seat: a fresh D-FASTER worker
// joins the live cluster (metadata Join via the worker's registration, real
// TCP listener, fault proxy, cluster-manager attach) and every permanent
// member donates an even share of its partitions to it.
func (h *Harness) JoinSpare() {
	if _, up := h.spareSeat(); up {
		h.logdbg("chaos: join skipped: spare already a member")
		return
	}
	h.startElastic("join", h.joinSpare)
}

func (h *Harness) joinSpare() {
	sp, up := h.spareSeat()
	if up {
		return
	}
	if sp == nil {
		sp = &workerSlot{id: core.WorkerID(len(h.slots) + 1)}
	}
	// A (re-)joining seat starts from an empty durable device: its previous
	// incarnation drained everything away before leaving.
	sp.flaky = storage.NewFlaky(storage.NewNull())
	w, err := dfaster.NewWorker(dfaster.WorkerConfig{
		ID:                 sp.id,
		ListenAddr:         "127.0.0.1:0",
		CheckpointInterval: h.cfg.Checkpoint,
		Partitions:         h.cfg.Partitions,
		Device:             sp.flaky,
		KV:                 kv.Config{BucketCount: kvBuckets, IndexShards: h.cfg.IndexShards},
	}, h.svc)
	if err != nil {
		h.elasticFail("join: %v", err)
		return
	}
	if sp.proxy == nil {
		proxy, perr := wire.NewFaultProxy(w.Addr())
		if perr != nil {
			w.Stop()
			h.elasticFail("join: proxy: %v", perr)
			return
		}
		sp.proxy = proxy
	} else {
		// The seat's proxy is its stable address across incarnations.
		sp.proxy.SetBackend(w.Addr())
	}
	h.svc.setAddr(sp.id, sp.proxy.Addr())
	h.mgr.Attach(w) // a re-joining seat was detached when it left
	h.slotMu.Lock()
	sp.df = w
	h.slotMu.Unlock()
	h.elasticMu.Lock()
	h.spare = sp
	h.spareUp = true
	h.elasticMu.Unlock()
	h.logdbg("chaos: worker %d joined; rebalancing into it", sp.id)

	// Rebalance: each permanent D-FASTER member hands over an even share.
	// An aborted handover restores the donor and is retried by later
	// join/migrate events, not here — under chaos a tight retry loop would
	// just hammer a seat that is mid-crash.
	for _, slot := range h.slots[:h.cfg.DFaster] {
		d := h.liveDF(slot)
		if d == nil {
			continue
		}
		owned := d.OwnedPartitions()
		sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
		share := len(owned) / (h.cfg.DFaster + 1)
		if share == 0 {
			continue
		}
		if err := migration.Migrate(h.svc, d, sp.id, owned[:share], elasticMigrateTimeout); err != nil {
			h.logdbg("chaos: join rebalance from worker %d aborted: %v", slot.id, err)
		}
	}
}

// LeaveSpare asynchronously drains the spare seat back into the permanent
// members and removes it from the cluster.
func (h *Harness) LeaveSpare() {
	sp, up := h.spareSeat()
	if !up {
		h.logdbg("chaos: leave skipped: spare not a member")
		return
	}
	h.startElastic("leave", func() {
		if h.drainSeat(sp, 30*time.Second) {
			h.elasticMu.Lock()
			h.spareUp = false
			h.elasticMu.Unlock()
		}
	})
}

// drainSeat migrates everything the seat owns to the other live D-FASTER
// members, then stops its worker and removes the member row — the defensive
// version of migration.Drain: under chaos any handover can abort (the donor
// restores its own ownership), so the drain retries until the seat owns
// nothing and only then stops the process. The order is load-bearing twice
// over: Stop before Leave, or a late maintenance report re-inserts the
// finder row and gates the cut at the seat's version forever; and no Stop
// until owned is empty, or an aborted handover would strand partitions on a
// dead member. Reports whether the member row is gone.
func (h *Harness) drainSeat(seat *workerSlot, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		d := h.liveDF(seat)
		if d == nil {
			// Mid-restart (a permanent seat being drained can also be a
			// crash target); wait for the replacement process.
			if time.Now().After(deadline) {
				h.elasticFail("drain: seat %d has no running worker", seat.id)
				return false
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		owned := d.OwnedPartitions()
		if len(owned) == 0 {
			break
		}
		if time.Now().After(deadline) {
			h.elasticFail("drain: seat %d still owns %d partitions after %s", seat.id, len(owned), timeout)
			return false
		}
		sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
		var survivors []*dfaster.Worker
		for _, slot := range h.slots[:h.cfg.DFaster] {
			if slot == seat {
				continue
			}
			if w := h.liveDF(slot); w != nil {
				survivors = append(survivors, w)
			}
		}
		if sp, up := h.spareSeat(); up && sp != seat {
			if w := h.liveDF(sp); w != nil {
				survivors = append(survivors, w)
			}
		}
		if len(survivors) == 0 {
			time.Sleep(10 * time.Millisecond) // every survivor mid-restart
			continue
		}
		chunks := make([][]uint64, len(survivors))
		for i, p := range owned {
			chunks[i%len(survivors)] = append(chunks[i%len(survivors)], p)
		}
		for i, ch := range chunks {
			if len(ch) == 0 {
				continue
			}
			if err := migration.Migrate(h.svc, d, survivors[i].ID(), ch, elasticMigrateTimeout); err != nil {
				h.logdbg("chaos: drain handover %d->%d aborted (will retry): %v",
					seat.id, survivors[i].ID(), err)
			}
		}
	}
	h.mgr.Detach(seat.id)
	h.slotMu.Lock()
	w := seat.df
	seat.df = nil
	h.slotMu.Unlock()
	if w != nil {
		w.Stop()
	}
	// Leave is the strict path: it refuses while any ownership stripe still
	// points at the seat. Nothing can re-assign ownership to a stopped seat
	// (only its own claim path writes its id), so this converges; the retry
	// rides out a stripe write from this drain's own last abort path.
	leaveDeadline := time.Now().Add(10 * time.Second)
	for {
		err := h.svc.Leave(seat.id)
		if err == nil {
			h.logdbg("chaos: worker %d drained and left the cluster", seat.id)
			return true
		}
		if time.Now().After(leaveDeadline) {
			h.elasticFail("drain: seat %d cannot leave: %v", seat.id, err)
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// MigrateSlot asynchronously moves half of a permanent member's partitions
// to another live member — the spare seat when it is up, the next permanent
// member otherwise. The schedule-driven live-migration event.
func (h *Harness) MigrateSlot(i int) {
	h.startElastic("migrate", func() { h.migrateSlot(i) })
}

func (h *Harness) migrateSlot(i int) {
	seat := h.slots[i%h.cfg.DFaster]
	d := h.liveDF(seat)
	if d == nil {
		h.logdbg("chaos: migrate skipped: seat %d mid-restart", seat.id)
		return
	}
	var target *dfaster.Worker
	if sp, up := h.spareSeat(); up {
		target = h.liveDF(sp)
	}
	if target == nil {
		next := h.slots[(i+1)%h.cfg.DFaster]
		if next == seat {
			return // single-member cluster: nowhere to go
		}
		target = h.liveDF(next)
	}
	if target == nil {
		h.logdbg("chaos: migrate skipped: no live target")
		return
	}
	owned := d.OwnedPartitions()
	if len(owned) < 2 {
		return
	}
	sort.Slice(owned, func(a, b int) bool { return owned[a] < owned[b] })
	moving := owned[:len(owned)/2]
	if err := migration.Migrate(h.svc, d, target.ID(), moving, elasticMigrateTimeout); err != nil {
		h.logdbg("chaos: migration of %d partitions %d->%d aborted: %v",
			len(moving), seat.id, target.ID(), err)
	} else {
		h.logdbg("chaos: migrated %d partitions %d->%d", len(moving), seat.id, target.ID())
	}
}
