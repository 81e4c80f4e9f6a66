// Package queue implements a durable, DPR-backed message log — the
// "persistent log such as Kafka" StateObject role from the paper's
// serverless workflow example (§1 Example 2, §2). Producers append messages
// with memory-speed completion; consumers may read messages *before* they
// commit (the low-latency pipeline mode the paper advocates), or in durable
// mode, where DPR's session-dependency semantics guarantee the consumed
// message is recoverable before it is handed to the application:
// a consumer's read on the same shard executes in a version at or after the
// enqueue's version, so once the read's own session prefix commits, the
// enqueue is inside the DPR cut too.
//
// Layout on the key-value store:
//
//	q/<name>/head        — fetch-add slot counter (RMW)
//	q/<name>/s/<slot>    — message body
//
// All keys of one queue share a hash prefix but spread across partitions;
// the head counter is a single hot key, which the cache-store serves at
// memory speed (§2: "sufficient to support high throughput on a single
// key").
package queue

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dpr/internal/dfaster"
	"dpr/internal/metadata"
	"dpr/internal/wire"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("queue: closed")

// ErrTimeout is returned when a blocking call exceeds its deadline.
var ErrTimeout = errors.New("queue: timed out")

// Config parameterizes queue handles.
type Config struct {
	// Partitions must match the cluster's virtual partition count.
	Partitions int
	// BatchSize is the producer's network batch size (default 16).
	BatchSize int
}

func headKey(name string) []byte { return []byte(fmt.Sprintf("q/%s/head", name)) }
func slotKey(name string, slot uint64) []byte {
	return []byte(fmt.Sprintf("q/%s/s/%016d", name, slot))
}

// Producer appends messages to a queue. A Producer is a session: use from
// one goroutine.
type Producer struct {
	name   string
	client *dfaster.Client
	closed bool
}

// NewProducer opens a producer for the named queue.
func NewProducer(name string, cfg Config, meta metadata.Service) (*Producer, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	client, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: cfg.Partitions,
		BatchSize:  cfg.BatchSize,
		Relaxed:    true,
	}, meta)
	if err != nil {
		return nil, err
	}
	return &Producer{name: name, client: client}, nil
}

// Enqueue appends msg and returns its slot number. The message is visible
// to consumers immediately and commits asynchronously (use WaitAllCommitted
// before externalizing anything derived from it).
func (p *Producer) Enqueue(msg []byte) (uint64, error) {
	if p.closed {
		return 0, ErrClosed
	}
	// Claim a slot with fetch-add on the head counter.
	slotCh := make(chan uint64, 1)
	errCh := make(chan error, 1)
	if err := p.client.RMW(headKey(p.name), 1, func(r wire.OpResult) {
		if r.Status != wire.StatusOK || len(r.Value) < 8 {
			errCh <- fmt.Errorf("queue: slot claim failed (status %d)", r.Status)
			return
		}
		slotCh <- binary.LittleEndian.Uint64(r.Value) - 1
	}); err != nil {
		return 0, err
	}
	if err := p.client.Flush(); err != nil {
		return 0, err
	}
	var slot uint64
	select {
	case slot = <-slotCh:
	case err := <-errCh:
		// A failed claim usually means the session hit a rollback; surface
		// the SurvivalError so the application can recover properly.
		if fe := p.client.Err(); fe != nil {
			return 0, fe
		}
		return 0, err
	case <-time.After(30 * time.Second):
		return 0, ErrTimeout
	}
	if err := p.client.Upsert(slotKey(p.name, slot), msg, nil); err != nil {
		return 0, err
	}
	if err := p.client.Flush(); err != nil {
		return 0, err
	}
	return slot, nil
}

// WaitAllCommitted blocks until every message enqueued so far is durable. One
// that never reached a worker fails it, once: a *core.AbandonedError to re-send.
func (p *Producer) WaitAllCommitted(timeout time.Duration) error {
	return p.client.WaitCommitAll(timeout)
}

// Err surfaces a pending failure (a *core.SurvivalError after a rollback).
func (p *Producer) Err() error { return p.client.Err() }

// Acknowledge consumes a pending failure; lost enqueues must be re-sent.
func (p *Producer) Acknowledge() { p.client.Acknowledge() }

// Close releases the producer.
func (p *Producer) Close() {
	p.closed = true
	p.client.Close()
}

// Consumer reads a queue in slot order. A Consumer is a session: use from
// one goroutine.
type Consumer struct {
	name   string
	client *dfaster.Client
	pos    uint64
	// Durable selects durable consumption: Poll returns a message only
	// after the consumer's own read of it has committed — which, by DPR's
	// dependency rule, implies the enqueue is recoverable.
	Durable bool
	closed  bool
}

// NewConsumer opens a consumer starting at slot `from`.
func NewConsumer(name string, from uint64, cfg Config, meta metadata.Service) (*Consumer, error) {
	client, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: cfg.Partitions,
		BatchSize:  1, // consumers are latency-sensitive
		Relaxed:    true,
	}, meta)
	if err != nil {
		return nil, err
	}
	return &Consumer{name: name, client: client, pos: from}, nil
}

// Position returns the next slot Poll will deliver.
func (c *Consumer) Position() uint64 { return c.pos }

// Poll returns the next message, blocking up to timeout for it to appear.
// In Durable mode it additionally waits until the message is guaranteed
// recoverable before delivering it.
func (c *Consumer) Poll(timeout time.Duration) ([]byte, uint64, error) {
	if c.closed {
		return nil, 0, ErrClosed
	}
	deadline := time.Now().Add(timeout)
	key := slotKey(c.name, c.pos)
	for {
		type res struct {
			status byte
			val    []byte
		}
		ch := make(chan res, 1)
		if err := c.client.Read(key, func(r wire.OpResult) {
			// Copy inside the callback: r.Value is only valid for its duration.
			var v []byte
			if r.Value != nil {
				v = append([]byte(nil), r.Value...)
			}
			ch <- res{status: r.Status, val: v}
		}); err != nil {
			return nil, 0, err
		}
		if err := c.client.Flush(); err != nil {
			return nil, 0, err
		}
		select {
		case r := <-ch:
			if r.status == wire.StatusOK {
				if c.Durable {
					// Commit of our own read implies (same worker, >=
					// version) that the enqueue is inside the DPR cut.
					if err := c.client.WaitCommit(c.client.LastSeq(),
						time.Until(deadline)); err != nil {
						return nil, 0, fmt.Errorf("queue: durable wait: %w", err)
					}
				}
				slot := c.pos
				c.pos++
				return r.val, slot, nil
			}
			// A failure interrupts the consumer session too: surface it so
			// the application Acknowledges and resumes (its already
			// delivered durable messages are unaffected).
			if fe := c.client.Err(); fe != nil {
				return nil, 0, fe
			}
			// Not written yet (or enqueue lost in a rollback): retry.
		case <-time.After(time.Until(deadline)):
			return nil, 0, ErrTimeout
		}
		if time.Now().After(deadline) {
			return nil, 0, ErrTimeout
		}
		time.Sleep(time.Millisecond)
	}
}

// Err surfaces a pending failure.
func (c *Consumer) Err() error { return c.client.Err() }

// Acknowledge consumes a pending failure. The consumer's position is not
// rolled back automatically: messages it already delivered may have been
// lost if the application did not use Durable mode; re-reading from an
// earlier position is an application decision.
func (c *Consumer) Acknowledge() { c.client.Acknowledge() }

// Close releases the consumer.
func (c *Consumer) Close() {
	c.closed = true
	c.client.Close()
}

// Length returns the current head counter (total slots claimed) of a queue.
func Length(name string, cfg Config, meta metadata.Service) (uint64, error) {
	client, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: cfg.Partitions, BatchSize: 1, Relaxed: true,
	}, meta)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	ch := make(chan uint64, 1)
	if err := client.Read(headKey(name), func(r wire.OpResult) {
		if r.Status == wire.StatusOK && len(r.Value) >= 8 {
			ch <- binary.LittleEndian.Uint64(r.Value)
		} else {
			ch <- 0
		}
	}); err != nil {
		return 0, err
	}
	if err := client.Flush(); err != nil {
		return 0, err
	}
	select {
	case n := <-ch:
		return n, nil
	case <-time.After(30 * time.Second):
		return 0, ErrTimeout
	}
}
