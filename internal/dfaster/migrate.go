package dfaster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dpr/internal/core"
	"dpr/internal/kv"
	"dpr/internal/metadata"
	"dpr/internal/wire"
)

// This file is the worker half of live partition migration (package
// internal/migration coordinates; the metadata store tracks). The donor
// freezes the moving partitions at a migration cut, streams their committed
// kv state to the target, and the target claims ownership only once its own
// copy is covered by the DPR cut — so neither a donor nor a target crash at
// any point in the protocol can erase a committed operation:
//
//   - Freeze: the donor renounces the partitions and drains in-flight batch
//     executions (QuiesceExecution), so every write admitted under the old
//     ownership snapshot fully lands before the boundary seals. Sessions get
//     BadOwner and retry; nothing new lands below the migration cut.
//   - Boundary: CommitBoundary seals a version boundary and waits for local
//     durability, then WaitCutCovers pins it under the global DPR cut. From
//     here on, a donor rollback can never erase the streamed prefix.
//   - Stream: the frozen prefix of the moving partitions (ScanFrozen) goes
//     over a dedicated connection as migration frames.
//   - Target commit: the target ingests the records at its own current
//     version, seals its own boundary, and waits until the cut covers it.
//   - Flip: the target claims the partitions (metadata SetOwner + local),
//     acks, and the donor marks them moved so stale sessions are redirected
//     with ErrCodeMoved. Dirty client writes above the migration cut replay
//     at the target through normal session retransmission, in the same
//     world-line.
//
// A world-line bump anywhere in the middle aborts the protocol: the
// boundary belongs to the world-line it was sealed on.

// migRecordsPerFrame bounds a records frame (well under MaxFrameSize for
// ordinary values).
const migRecordsPerFrame = 256

// migReceiveTimeout bounds the receive-side commit-and-cover stage.
const migReceiveTimeout = 15 * time.Second

// DonatePartitions runs the donor half of migration id: freeze parts,
// seal + commit the migration boundary, stream the partitions' committed
// state to the target worker at addr, and wait for its ack. On success the
// partitions are marked moved (ErrCodeMoved redirects); ownership has
// already flipped to the target. On failure the caller owns recovery
// (re-claim the partitions, abort the migration record).
func (w *Worker) DonatePartitions(id uint64, to core.WorkerID, addr string, parts []uint64, timeout time.Duration) error {
	if len(parts) == 0 {
		return errors.New("dfaster: no partitions to donate")
	}
	for _, p := range parts {
		if !w.Owns(p) {
			return fmt.Errorf("dfaster: worker %d does not own partition %d", w.cfg.ID, p)
		}
	}
	wl0 := w.DPR().WorldLine()
	for _, p := range parts {
		w.Renounce(p)
	}
	// Renounce republishes the ownership snapshot, but a batch admitted just
	// before it may still be executing against the old snapshot — its write
	// passed the ownership check and will be acknowledged, so it must land
	// below the boundary we are about to seal or the stream leaves it behind.
	// Draining the execution epoch flushes those stragglers; every batch
	// admitted after the drain observes the renounced snapshot and bounces
	// with BadOwner. Other partitions keep serving throughout.
	w.DPR().QuiesceExecution()
	boundary, err := w.DPR().CommitBoundary(timeout)
	if err != nil {
		return err
	}
	// Only committed state travels: once the boundary is inside the DPR cut,
	// no donor rollback on this world-line can erase what we stream.
	if err := w.DPR().WaitCutCovers(boundary, timeout); err != nil {
		return err
	}
	if wl := w.DPR().WorldLine(); wl != wl0 {
		return fmt.Errorf("dfaster: world-line moved %d -> %d during migration freeze", wl0, wl)
	}

	set := make(map[uint64]bool, len(parts))
	for _, p := range parts {
		set[p] = true
	}
	var mu sync.Mutex
	var recs []wire.MigRecord
	w.store.ScanFrozen(boundary,
		func(key []byte) bool { return set[PartitionOf(key, w.cfg.Partitions)] },
		func(key, val []byte, ver core.Version) {
			// Copies: the emitted slices alias log memory under the bucket
			// lock, and emit runs concurrently across index shards.
			k := append([]byte(nil), key...)
			v := append([]byte(nil), val...)
			mu.Lock()
			recs = append(recs, wire.MigRecord{Key: k, Val: v, Version: ver})
			mu.Unlock()
		})

	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	bw := bufio.NewWriterSize(conn, 1<<16)
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	*buf = wire.AppendMigrateBegin((*buf)[:0], &wire.MigrateBegin{
		ID: id, WorldLine: wl0, From: w.cfg.ID, To: to,
		Boundary: boundary, Partitions: parts,
	})
	if err := wire.WriteFrame(bw, wire.FrameMigrateBegin, *buf); err != nil {
		return err
	}
	for off := 0; off < len(recs); off += migRecordsPerFrame {
		end := off + migRecordsPerFrame
		if end > len(recs) {
			end = len(recs)
		}
		*buf = wire.AppendMigrateRecords((*buf)[:0], recs[off:end])
		if err := wire.WriteFrame(bw, wire.FrameMigrateRecords, *buf); err != nil {
			return err
		}
	}
	*buf = wire.AppendMigrateCommit((*buf)[:0], id, uint64(len(recs)))
	if err := wire.WriteFrame(bw, wire.FrameMigrateCommit, *buf); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	tag, payload, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		return fmt.Errorf("dfaster: migration %d ack: %w", id, err)
	}
	if tag != wire.FrameMigrateAck {
		return fmt.Errorf("dfaster: migration %d: unexpected frame %d in place of ack", id, tag)
	}
	ack, err := wire.DecodeMigrateAck(payload)
	if err != nil {
		return err
	}
	if ack.Status != wire.MigrateAckOK {
		return fmt.Errorf("dfaster: migration %d rejected by target: %s", id, ack.Message)
	}
	w.MarkMoved(parts, to)
	return nil
}

// receiveMigration runs the target half on a connection whose first frame
// was FrameMigrateBegin. The connection is dedicated to the stream: after
// the ack (or an abort) it closes. Aborts tombstone whatever was imported,
// so a half-received stream leaves no orphaned records behind.
func (w *Worker) receiveMigration(fr *wire.FrameReader, bw *bufio.Writer, sess *kv.Session, beginPayload []byte) {
	m, err := wire.DecodeMigrateBegin(beginPayload)
	if err != nil {
		return
	}
	nack := func(msg string) {
		w.sendMigrateAck(bw, &wire.MigrateAck{
			Status: wire.MigrateAckRejected, WorldLine: w.DPR().WorldLine(), Message: msg,
		})
	}
	if m.To != w.cfg.ID {
		nack(fmt.Sprintf("stream addressed to worker %d, this is %d", m.To, w.cfg.ID))
		return
	}
	if wl := w.DPR().WorldLine(); wl != m.WorldLine {
		nack(fmt.Sprintf("target on world-line %d, stream cut on %d", wl, m.WorldLine))
		return
	}

	var recs []wire.MigRecord
	var imported [][]byte // keys to tombstone on abort
	var vt core.Version
	var count uint64
	abort := func() {
		for _, k := range imported {
			sess.Delete(k)
		}
	}
	for {
		tag, payload, err := fr.Read()
		if err != nil {
			abort() // donor died mid-stream
			return
		}
		switch tag {
		case wire.FrameMigrateRecords:
			recs, err = wire.DecodeMigrateRecordsInto(recs, payload)
			if err != nil {
				abort()
				return
			}
			for i := range recs {
				v, err := sess.Ingest(recs[i].Key, recs[i].Val)
				if err != nil {
					abort()
					nack(err.Error())
					return
				}
				if v > vt {
					vt = v
				}
				imported = append(imported, append([]byte(nil), recs[i].Key...))
				count++
			}
		case wire.FrameMigrateCommit:
			id, total, err := wire.DecodeMigrateCommit(payload)
			if err != nil || id != m.ID || total != count {
				abort()
				nack(fmt.Sprintf("truncated stream: %d of %d records", count, total))
				return
			}
			if count > 0 {
				// Commit the imported prefix and pin it under the DPR cut: a
				// crash of this worker after the flip must never roll back
				// below the imported state.
				boundary, err := w.DPR().CommitBoundary(migReceiveTimeout)
				if err != nil {
					abort()
					nack(err.Error())
					return
				}
				if boundary > vt {
					vt = boundary
				}
				if err := w.DPR().WaitCutCovers(vt, migReceiveTimeout); err != nil {
					abort()
					nack(err.Error())
					return
				}
			}
			if wl := w.DPR().WorldLine(); wl != m.WorldLine {
				abort()
				nack(fmt.Sprintf("world-line moved to %d during import", wl))
				return
			}
			// Commit point: retire the migration record. Exactly one of this
			// CompleteMigrate and the coordinator's AbortMigrate wins, so if
			// the record is gone (coordinator gave up, or recovery cleared
			// the registry) the flip must not happen.
			es, ok := w.meta.(metadata.ElasticService)
			if !ok {
				abort()
				nack("metadata service does not support migration")
				return
			}
			if err := es.CompleteMigrate(m.ID); err != nil {
				abort()
				nack(err.Error())
				return
			}
			if err := w.ClaimPartitions(m.Partitions...); err != nil {
				abort()
				nack(err.Error())
				return
			}
			w.sendMigrateAck(bw, &wire.MigrateAck{
				Status: wire.MigrateAckOK, WorldLine: m.WorldLine, Version: vt,
			})
			return
		default:
			abort()
			return
		}
	}
}

func (w *Worker) sendMigrateAck(bw *bufio.Writer, a *wire.MigrateAck) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	*buf = wire.AppendMigrateAck((*buf)[:0], a)
	if wire.WriteFrame(bw, wire.FrameMigrateAck, *buf) == nil {
		bw.Flush()
	}
}
