package redisclone

import (
	"encoding/binary"

	"dpr/internal/core"
	"dpr/internal/wire"
)

// Apply runs a wire batch's operations against the instance, one command per
// operation, filling results[i] for ops[i] and stamping each with v — the
// version the caller executes the batch in (zero for a server with no DPR).
// It is the protocol adapter both servers of Figures 17-19 share, so they
// compare the same apply code with and without DPR.
//
// Keys are copied (string(op.Key)): every command crosses the instance's
// channel-based event loop, so the key outlives the frame's read buffer.
func (s *Server) Apply(ops []wire.Op, results []wire.OpResult, v core.Version) {
	for i, op := range ops {
		r := wire.OpResult{Status: wire.StatusOK, Version: v}
		var err error
		switch op.Kind {
		case wire.OpUpsert:
			err = s.Set(string(op.Key), op.Value)
		case wire.OpRead:
			var ok bool
			if r.Value, ok, err = s.Get(string(op.Key)); !ok {
				r.Status = wire.StatusNotFound
			}
		case wire.OpDelete:
			_, err = s.Del(string(op.Key))
		case wire.OpRMW:
			var delta int64
			if len(op.Value) >= 8 {
				delta = int64(binary.LittleEndian.Uint64(op.Value))
			}
			_, err = s.Incr(string(op.Key), delta)
		default:
			r.Status = wire.StatusError
		}
		if err != nil {
			r = wire.OpResult{Status: wire.StatusError, Version: v}
		}
		results[i] = r
	}
}
