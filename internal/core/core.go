// Package core implements the Distributed Prefix Recovery (DPR) model from
// "Asynchronous Prefix Recoverability for Fast Distributed Stores"
// (SIGMOD 2021): versions, tokens, precedence graphs, DPR-cuts, the exact,
// approximate, and hybrid cut-finding algorithms, the Lamport-clock style
// progress rule, and world-line tracking for non-blocking failure recovery.
//
// Terminology follows the paper. A sharded system consists of StateObjects.
// Each StateObject partitions its operation history into versions; the
// aggregate state of one Commit() is a version, identified by a Token
// (worker id, version number). Client sessions induce dependencies between
// tokens: if a session completes an operation captured by A-m and then issues
// one captured by B-n, B-n depends on A-m. A DPR-cut is a dependency-closed
// set of durable tokens; restoring every StateObject to its token in the cut
// yields a prefix-consistent state for every session.
package core

import (
	"errors"
	"fmt"
)

// WorkerID identifies a StateObject shard in the cluster.
type WorkerID uint32

// Version numbers a StateObject's commit epochs. Version 0 is the empty
// pre-history; the first operations execute in version 1.
type Version uint64

// WorldLine identifies an uninterrupted trajectory of system state evolution
// (§4.2). Every failure spawns a new world-line with a larger serial number.
type WorldLine uint64

// Token identifies one committed version of one StateObject, e.g. A-2 in the
// paper's notation. A token captures the prefix of all operations the
// StateObject executed in versions <= Version.
type Token struct {
	Worker  WorkerID
	Version Version
}

func (t Token) String() string { return fmt.Sprintf("%d-%d", t.Worker, t.Version) }

// Covers reports whether this token's prefix includes other's prefix. Tokens
// of different workers are incomparable and never cover each other.
func (t Token) Covers(other Token) bool {
	return t.Worker == other.Worker && t.Version >= other.Version
}

// Cut is a DPR-cut: for each worker, all versions <= Cut[worker] are
// included. Workers absent from the map contribute only the empty version 0.
// Because the progress rule (§3.2) guarantees a version never depends on a
// version with a larger number, per-worker prefixes are sufficient to
// represent any dependency-closed token set.
type Cut map[WorkerID]Version

// Get returns the cut position for worker w (0 if absent).
func (c Cut) Get(w WorkerID) Version {
	if c == nil {
		return 0
	}
	return c[w]
}

// Max returns the highest position in the cut (0 for an empty cut): the
// fastest worker's.
func (c Cut) Max() Version {
	var max Version
	for _, v := range c {
		if v > max {
			max = v
		}
	}
	return max
}

// Includes reports whether token t is inside the cut.
func (c Cut) Includes(t Token) bool { return t.Version <= c.Get(t.Worker) }

// Clone returns a deep copy of the cut.
func (c Cut) Clone() Cut {
	out := make(Cut, len(c))
	for w, v := range c {
		out[w] = v
	}
	return out
}

// Merge raises this cut to include the other cut's positions, returning true
// if any position advanced. Merging two valid cuts yields a valid cut only
// when both were computed against the same dependency history; callers are
// the finder implementations, which maintain that invariant.
func (c Cut) Merge(other Cut) bool {
	advanced := false
	for w, v := range other {
		if v > c[w] {
			c[w] = v
			advanced = true
		}
	}
	return advanced
}

// Lower reduces this cut to the per-worker minimum with the other cut,
// composing the survival constraints of consecutive recoveries: an operation
// survives a chain of rollbacks only if its token lies inside EVERY
// recovery's cut, and version counters keep climbing, so a later cut can
// numerically re-cover versions an earlier rollback already erased. A worker
// absent from one cut is unconstrained by it (the worker did not exist at
// that recovery) and keeps the other cut's position.
func (c Cut) Lower(other Cut) {
	for w, v := range other {
		if cur, ok := c[w]; !ok || v < cur {
			c[w] = v
		}
	}
}

// Equal reports whether the two cuts include exactly the same tokens.
func (c Cut) Equal(other Cut) bool {
	for w, v := range c {
		if other.Get(w) != v && v != 0 {
			return false
		}
	}
	for w, v := range other {
		if c.Get(w) != v && v != 0 {
			return false
		}
	}
	return true
}

// StateObject is the abstract shard interface of §3. Operation execution
// (Op() in the paper) is store-specific and lives outside this interface;
// DPR needs only the commit/restore surface:
//
//   - Op():        executes a read/write operation and returns uncommitted.
//   - Commit():    BeginCommit starts making a version prefix durable;
//     PersistedVersion reports durability asynchronously.
//   - Restore():   rolls back so only versions <= v survive.
//
// Implementations must allow BeginCommit to run without blocking operation
// processing (non-blocking checkpoints), and Restore without blocking
// unaffected operations (non-blocking rollback), to preserve DPR's
// performance characteristics; the contract itself requires only
// correctness.
type StateObject interface {
	// BeginCommit initiates a checkpoint capturing every operation executed
	// in versions <= v. Subsequent operations execute in versions > v.
	// It is idempotent for v at or below the current in-flight checkpoint.
	BeginCommit(v Version) error
	// PersistedVersion returns the largest version v such that the prefix of
	// operations in versions <= v is fully durable.
	PersistedVersion() Version
	// Restore rolls the StateObject back to the prefix of versions <= v.
	Restore(v Version) error
}

// ErrWorldLineMismatch is returned when a request's world-line does not match
// the serving StateObject's world-line and the request cannot be delayed.
var ErrWorldLineMismatch = errors.New("dpr: world-line mismatch")

// ErrRolledBack is surfaced to sessions whose operations were lost in a
// rollback; the surviving prefix accompanies it via SurvivalError.
var ErrRolledBack = errors.New("dpr: operations rolled back by failure recovery")

// SurvivalError reports, after a failure, the exact prefix of a session that
// survived (§2: "the next call to DPR will return an error with the exact
// prefix that survived the failure").
type SurvivalError struct {
	// WorldLine is the new world-line the session must adopt to continue.
	WorldLine WorldLine
	// SurvivingPrefix is the largest sequence number n such that all session
	// operations with seq <= n (except those in Exceptions) are recovered.
	SurvivingPrefix uint64
	// Exceptions lists sequence numbers <= SurvivingPrefix that were lost
	// anyway; non-empty only under relaxed DPR (§5.4), where PENDING
	// operations may be missing from a recovered prefix.
	Exceptions []uint64
}

func (e *SurvivalError) Error() string {
	return fmt.Sprintf("dpr: rolled back to world-line %d; surviving prefix %d (%d exceptions)",
		e.WorldLine, e.SurvivingPrefix, len(e.Exceptions))
}

func (e *SurvivalError) Unwrap() error { return ErrRolledBack }

// AbandonedError reports an operation of unknown fate (SessionTracker.Abandon)
// to a commit wait: Seq will never be reported committed, and under strict DPR
// neither will anything after it in the session before a rollback resolves it.
type AbandonedError struct{ Seq uint64 }

func (e *AbandonedError) Error() string {
	return fmt.Sprintf("dpr: operation %d was abandoned (lost reply or undeliverable): it is not committed", e.Seq)
}
