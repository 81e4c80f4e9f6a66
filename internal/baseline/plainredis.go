package baseline

import (
	"encoding/binary"

	"dpr/internal/redisclone"
	"dpr/internal/serve"
	"dpr/internal/storage"
	"dpr/internal/wire"
)

// PlainServer serves a redisclone instance over the wire protocol with no
// DPR processing at all — the "Redis" baseline of Figures 17-19. Behind a
// pass-through proxy it is the "Redis + Proxy" control of §7.5, which
// isolates the extra network hop from the DPR algorithm.
type PlainServer struct {
	srv   *redisclone.Server
	frame *serve.Server
}

// NewPlainServer starts a plain server on addr. AOFOff disables persistence;
// AOFAlways yields Redis's synchronous recoverability, AOFEverySec the
// eventual level (Figure 19).
func NewPlainServer(addr string, device storage.Device, prefix string, aof redisclone.AOFMode) (*PlainServer, error) {
	frame, err := serve.Listen(addr)
	if err != nil {
		return nil, err
	}
	p := &PlainServer{
		srv:   redisclone.New(redisclone.Config{Device: device, Prefix: prefix, AOF: aof}),
		frame: frame,
	}
	frame.Start(func() serve.Handler {
		var results []wire.OpResult
		var reply wire.BatchReply
		return serve.Handler{
			Execute: func(req *wire.BatchRequest) (*wire.BatchReply, *wire.ErrorReply) {
				results = p.execute(req.Ops, results[:0])
				reply = wire.BatchReply{Results: results}
				return &reply, nil
			},
		}
	})
	return p, nil
}

// Addr returns the listen address.
func (p *PlainServer) Addr() string { return p.frame.Addr() }

// Stop shuts the server down, connections included.
func (p *PlainServer) Stop() {
	p.frame.Stop()
	p.srv.Stop()
}

// execute applies ops to the store, appending one result per op. Store errors
// are not reported: the baseline measures the serving cost, not fault handling.
func (p *PlainServer) execute(ops []wire.Op, results []wire.OpResult) []wire.OpResult {
	for _, op := range ops {
		r := wire.OpResult{Status: wire.StatusOK}
		switch op.Kind {
		case wire.OpUpsert:
			p.srv.Set(string(op.Key), op.Value)
		case wire.OpRead:
			if v, ok, _ := p.srv.Get(string(op.Key)); ok {
				r.Value = v
			} else {
				r.Status = wire.StatusNotFound
			}
		case wire.OpDelete:
			p.srv.Del(string(op.Key))
		case wire.OpRMW:
			var delta int64
			if len(op.Value) >= 8 {
				delta = int64(binary.LittleEndian.Uint64(op.Value))
			}
			p.srv.Incr(string(op.Key), delta)
		default:
			r.Status = wire.StatusError
		}
		results = append(results, r)
	}
	return results
}
