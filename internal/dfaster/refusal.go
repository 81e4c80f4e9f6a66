package dfaster

import (
	"sort"
	"time"

	"dpr/internal/wire"
)

// Refusal ledger: per-(session, partition) ordering across refusals.
//
// A worker that refuses a batch (BadOwner during a migration freeze) has a
// problem the client cannot solve alone: later batches from the same session
// are already pipelined on the wire behind the refused one. If the freeze
// lifts (an aborted handover restores the donor, or a restarted donor
// reclaims), those later batches execute immediately while the refused batch
// only returns via a client retry — an older write landing after a newer one
// to the same key, silently losing the newer value. The checker sees that as
// committed data lost.
//
// The ledger closes the window: every refused operation's sequence number is
// recorded against its partition, and a later operation on that partition
// from the same session may only execute once every smaller recorded
// sequence has executed (or arrives in the same batch, in order). Anything
// out of order is refused — and recorded, extending the gate — which forces
// the client to re-drive the whole tail in session order through its retry
// queue. The client retries one batch at a time in ascending sequence order
// (client.go), so the smallest-first rule converges: each retry pops its
// sequence numbers and unblocks the next. Recording is per operation, not
// per batch, because a refused batch can split into per-owner runs on the
// retry: each run must be admittable at its worker against exactly the
// sequence numbers of the operations it carries.
//
// Entries are tagged with the world-line (a rollback resets session replay
// wholesale, so stale entries are dropped lazily) and carry a TTL as a
// wedge-breaker: if a client exhausts its retries and error-resolves a
// refused batch, those sequence numbers would otherwise gate the partition
// for the session forever. By the TTL the client has either executed the
// operations (entries popped) or given up on them (they will never be sent
// again), so expiry is safe.

// refusalTTL bounds how long a refused sequence number can gate a
// (session, partition) pair; see the wedge-breaker note above.
const refusalTTL = 5 * time.Second

// refusalCap bounds recorded seqs per (session, partition); beyond it,
// refusals still happen but are no longer recorded (the client window is
// orders of magnitude smaller, so the cap is a defensive bound only).
const refusalCap = 1024

type refusalKey struct {
	sess uint64
	part uint64
}

type refusalLedger struct {
	wl      uint64
	expires time.Time
	seqs    []uint64 // ascending, deduped
}

// recordRefusal notes that the batch (sess, seqStart..seqStart+len(ops)-1)
// was refused. Every operation's sequence number gates its partition: the
// whole batch is delayed, so a later operation on any of its partitions
// must not overtake it.
func (w *Worker) recordRefusal(sess, seqStart uint64, ops []wire.Op) {
	wl := uint64(w.DPR().WorldLine())
	now := time.Now()
	w.refusalMu.Lock()
	for i := range ops {
		p := PartitionOf(ops[i].Key, w.cfg.Partitions)
		w.recordRefusalLocked(refusalKey{sess: sess, part: p}, seqStart+uint64(i), wl, now)
	}
	w.refusalMu.Unlock()
}

func (w *Worker) recordRefusalLocked(k refusalKey, seq, wl uint64, now time.Time) {
	l := w.refusals[k]
	if l != nil && (l.wl != wl || now.After(l.expires)) {
		delete(w.refusals, k)
		w.refusalOn.Add(-1)
		l = nil
	}
	if l == nil {
		l = &refusalLedger{wl: wl}
		w.refusals[k] = l
		w.refusalOn.Add(1)
	}
	l.expires = now.Add(refusalTTL)
	j := sort.Search(len(l.seqs), func(j int) bool { return l.seqs[j] >= seq })
	if j < len(l.seqs) && l.seqs[j] == seq {
		return
	}
	if len(l.seqs) >= refusalCap {
		return
	}
	l.seqs = append(l.seqs, 0)
	copy(l.seqs[j+1:], l.seqs[j:])
	l.seqs[j] = seq
}

// refusalAdmit decides whether an owned, admitted batch may execute. An
// operation is in order when no smaller recorded sequence number is still
// pending on its partition — equal entries are popped by the batch's own
// earlier operations in sequence order. True pops every matched entry;
// false records the refusal (the caller answers BadOwner, and the client's
// ordered retry re-drives the batch when its turn comes).
func (w *Worker) refusalAdmit(sess, seqStart uint64, ops []wire.Op) bool {
	wl := uint64(w.DPR().WorldLine())
	now := time.Now()
	w.refusalMu.Lock()
	defer w.refusalMu.Unlock()
	// First pass: verify order, counting per-partition pops this batch would
	// perform. ops are in ascending sequence order by construction.
	pops := make(map[refusalKey]int) //dpr:ignore hotpath-noalloc only reached while refused batches are outstanding
	admit := true
	for i := range ops {
		seq := seqStart + uint64(i)
		k := refusalKey{sess: sess, part: PartitionOf(ops[i].Key, w.cfg.Partitions)}
		l := w.refusals[k]
		if l == nil {
			continue
		}
		if l.wl != wl || now.After(l.expires) {
			delete(w.refusals, k)
			w.refusalOn.Add(-1)
			continue
		}
		if n := pops[k]; n < len(l.seqs) {
			switch {
			case l.seqs[n] < seq:
				admit = false
			case l.seqs[n] == seq:
				pops[k] = n + 1
			}
		}
		if !admit {
			break
		}
	}
	if !admit {
		for i := range ops {
			p := PartitionOf(ops[i].Key, w.cfg.Partitions)
			w.recordRefusalLocked(refusalKey{sess: sess, part: p}, seqStart+uint64(i), wl, now)
		}
		return false
	}
	for k, n := range pops {
		l := w.refusals[k]
		l.seqs = l.seqs[n:]
		if len(l.seqs) == 0 {
			delete(w.refusals, k)
			w.refusalOn.Add(-1)
		}
	}
	return true
}

// dropRefusals forgets every ledger for the given partitions — used when
// partitions flip to a new owner: from then on this worker answers Moved,
// the client re-drives the tail to the target in session order, and the
// ledgers here can only go stale.
func (w *Worker) dropRefusals(ps []uint64) {
	w.refusalMu.Lock()
	for k := range w.refusals {
		for _, p := range ps {
			if k.part == p {
				delete(w.refusals, k)
				w.refusalOn.Add(-1)
				break
			}
		}
	}
	w.refusalMu.Unlock()
}
