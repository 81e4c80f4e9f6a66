package baseline

import (
	"slices"

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
				results = slices.Grow(results[:0], len(req.Ops))[:len(req.Ops)]
				p.srv.Apply(req.Ops, results, 0)
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
