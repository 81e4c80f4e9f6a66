// Package migration coordinates DPR-consistent live shard migration:
// moving ownership of virtual partitions between workers of a running
// cluster without ever violating the committed-prefix guarantee.
//
// A migration is an epoch-tagged protocol between three parties:
//
//   - the metadata store tracks the migration record, tagged with the
//     world-line and DPR cut it began on (metadata.ElasticService);
//   - the donor freezes the moving partitions at a migration boundary,
//     waits for the boundary to enter the global DPR cut, and streams the
//     partitions' committed state to the target
//     (dfaster.Worker.DonatePartitions);
//   - the target imports the stream, pins its own copy under the cut, and
//     flips ownership — with metadata CompleteMigrate as the atomic commit
//     point, so a racing coordinator abort and a target flip cannot both
//     win.
//
// Client sessions that still route to the donor get a wire.ErrCodeMoved
// redirect naming the new owner and retransmit the same batches there:
// dirty writes above the migration cut replay at the target in the same
// world-line, preserving the session's FIFO frontier and commit floor.
//
// A recovery round (world-line bump) anywhere in the middle invalidates
// the migration: the registry is cleared, both worker halves abort on
// their world-line checks, and the coordinator restores donor ownership.
// The committed prefix is never at risk in either direction — the donor
// only streams state below a cut-covered boundary, and the target only
// claims after its own copy is cut-covered.
package migration

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/metadata"
)

// ownerGrace bounds how long an aborting coordinator waits for the
// ownership stripes to reflect a target-side flip that won the migration
// record but has not finished its SetOwner calls yet.
const ownerGrace = 500 * time.Millisecond

// Migrate moves the given virtual partitions from donor to the live member
// to. The coordinator must run in the donor's process (the donor streams
// its own state). On success ownership has flipped, the target's copy is
// covered by the DPR cut, and stale sessions are being redirected; on
// failure donor ownership is restored for every partition the target did
// not manage to claim, and the error explains the aborted handover.
func Migrate(meta metadata.ElasticService, donor *dfaster.Worker, to core.WorkerID, parts []uint64, timeout time.Duration) (err error) {
	id, err := meta.BeginMigrate(parts, donor.ID(), to)
	if err != nil {
		return err
	}
	// From here the record exists, and this is the one place it is resolved
	// from the coordinator's side: every way out with an error aborts it and
	// restores the donor. The only way out without one is DonatePartitions
	// returning nil, which it does after the target's CompleteMigrate won the
	// record and its ack arrived (dfaster/migrate.go) — nothing is left then.
	defer func() {
		if err != nil {
			err = abortAndRestore(meta, donor, id, to, parts, err)
		}
	}()
	members, err := meta.Members()
	if err != nil {
		return err
	}
	if members[to] == "" {
		return fmt.Errorf("migration: no address for target worker %d", to)
	}
	return donor.DonatePartitions(id, to, members[to], parts, timeout)
}

// abortAndRestore undoes a failed handover. AbortMigrate and the target's
// CompleteMigrate are serialized on the metadata store and exactly one wins
// the record: if the abort removed it, the target can never flip and the
// donor re-claims immediately. Otherwise the record was already gone —
// either the target completed (possibly without the donor seeing the ack)
// or recovery cleared the registry — so ownership decides: partitions the
// stripes show at the target are marked moved at the donor, anything still
// pointing at the donor is re-claimed.
func abortAndRestore(meta metadata.ElasticService, donor *dfaster.Worker, id uint64, to core.WorkerID, parts []uint64, cause error) error {
	removed, aerr := meta.AbortMigrate(id)
	if aerr == nil && removed {
		if cerr := donor.ClaimPartitions(parts...); cerr != nil {
			return fmt.Errorf("migration %d aborted (%w); restoring donor ownership failed: %v", id, cause, cerr)
		}
		return fmt.Errorf("migration %d aborted: %w", id, cause)
	}
	deadline := time.Now().Add(ownerGrace)
	reclaim := parts[:0:0]
	for _, p := range parts {
		for {
			owner, oerr := meta.OwnerOf(p)
			if oerr == nil && owner == to {
				donor.MarkMoved([]uint64{p}, to)
				break
			}
			if time.Now().After(deadline) {
				reclaim = append(reclaim, p)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(reclaim) > 0 {
		if cerr := donor.ClaimPartitions(reclaim...); cerr != nil {
			return fmt.Errorf("migration %d aborted (%w); restoring donor ownership failed: %v", id, cause, cerr)
		}
	}
	return fmt.Errorf("migration %d aborted: %w", id, cause)
}

// Rebalance gives a freshly joined member an even share of the keyspace:
// each donor hands over 1/(len(donors)+1) of its partitions. The new
// member must already be registered (constructing its worker did that).
func Rebalance(meta metadata.ElasticService, donors []*dfaster.Worker, to core.WorkerID, timeout time.Duration) error {
	n := len(donors) + 1
	for _, d := range donors {
		owned := d.OwnedPartitions()
		sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
		share := len(owned) / n
		if share == 0 {
			continue
		}
		if err := Migrate(meta, d, to, owned[:share], timeout); err != nil {
			return err
		}
	}
	return nil
}

// Drain migrates everything the donor owns to the survivors (round-robin),
// stops the donor, and removes it from the cluster. The donor is stopped
// before Leave so its maintenance loop cannot report a version after the
// finder dropped its row (a late report would re-insert the row and gate
// the cut at the donor's version forever). Leave itself is the strict
// path: it fails if any ownership stripe still points at the donor.
func Drain(meta metadata.ElasticService, donor *dfaster.Worker, survivors []core.WorkerID, timeout time.Duration) error {
	if len(survivors) == 0 {
		return errors.New("migration: no survivors to drain to")
	}
	owned := donor.OwnedPartitions()
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	chunks := make([][]uint64, len(survivors))
	for i, p := range owned {
		chunks[i%len(survivors)] = append(chunks[i%len(survivors)], p)
	}
	for i, ch := range chunks {
		if len(ch) == 0 {
			continue
		}
		if err := Migrate(meta, donor, survivors[i], ch, timeout); err != nil {
			return err
		}
	}
	donor.Stop()
	return meta.Leave(donor.ID())
}
