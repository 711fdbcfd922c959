package mq

// Push-based delivery: a consumer opens one standing Push stream per broker
// primary and the broker sends messages as they become deliverable, instead
// of the consumer long-polling Consume and paying an RPC per poll (and per
// hung shard) even when the topic is idle. Delivery is demand-gated: every
// Next sends one demand item up the stream, and the broker leases a message
// only against a demand. A stream therefore holds at most one leased,
// undelivered message — the poll loop's lease semantics (a backlog stays at
// the broker, a Nacked message is the next one leased) without its RPC per
// message. Settles are unchanged: the consumer Acks/Nacks by key, and a
// message leased on a dying stream is nacked back for immediate redelivery.

import (
	"context"
	"sync"
	"time"

	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// pushWaitSlice bounds each broker-side queue wait between liveness checks
// of the push stream: a local cond wait, so an idle topic costs no RPCs —
// the whole point versus polling — while teardown is noticed within one
// slice.
const pushWaitSlice = 250 * time.Millisecond

// pushReopenBase and pushReopenMax bound the backoff between failed stream
// opens (dead primary, lease not yet evicted), both in a partitioned
// session's per-shard loop and in a Consumer reopening its session.
const (
	pushReopenBase = 20 * time.Millisecond
	pushReopenMax  = 250 * time.Millisecond
)

// nackTimeout bounds a Nack sent outside any caller deadline (a Consumer's
// handler failure, a session returning an orphaned message at Close).
const nackTimeout = 2 * time.Second

// Deliveries is an open push-delivery session. Next asks the broker for one
// message and blocks until it arrives; the consumer settles it with the
// bus's Ack/Nack. Close ends the session and releases its streams;
// messages leased but undelivered at Close are nacked back.
type Deliveries interface {
	// Next returns the next delivered message. An error means this session
	// has stopped delivering — the single-broker session ends when its
	// stream does (the consumer reopens, its failover moment), while the
	// partitioned session fails over internally and errors only when its
	// context ends.
	Next() (ConsumeResp, error)
	// Close tears the session down; a blocked Next wakes with an error.
	Close()
}

// demand asks the broker for the stream's next message: one empty item per
// lease the consumer is ready to take.
func demand(st *transport.Stream) error { return st.Raw().Send(nil) }

// streamDeliveries is the single-broker session: one stream, no failover —
// Next surfaces the stream's end and the consumer reopens.
type streamDeliveries struct{ st *transport.Stream }

func (d *streamDeliveries) Next() (ConsumeResp, error) {
	if err := demand(d.st); err != nil {
		return ConsumeResp{}, err
	}
	var m ConsumeResp
	if err := d.st.Recv(&m); err != nil {
		return ConsumeResp{}, err
	}
	return m, nil
}

func (d *streamDeliveries) Close() { d.st.Cancel() }

// Push opens a push stream on the broker. The underlying transport must
// support streaming (rpc clients, balanced pools, and shard replicas all
// do); callers get a coded error otherwise.
func (c Client) Push(ctx context.Context, topic, group string, lease time.Duration) (Deliveries, error) {
	sc, ok := c.C.(transport.Streamer)
	if !ok {
		return nil, rpc.Errorf(rpc.CodeBadRequest, "mq: transport does not support push delivery")
	}
	st, err := sc.Stream(ctx, "Push", PushReq{Topic: topic, Group: group, LeaseNs: int64(lease)})
	if err != nil {
		return nil, err
	}
	return &streamDeliveries{st: st}, nil
}

// partDeliveries is the partitioned session: one goroutine per shard keeps
// a push stream open against that shard's primary, re-resolving and
// reopening with backoff when the stream dies — which is exactly what a
// primary crash looks like, so failover to the promoted mirror is just the
// next reopen. Deliveries from all shards merge into one channel; a shard
// demands its next message only once the consumer has taken the last one.
type partDeliveries struct {
	out    chan ConsumeResp
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func (d *partDeliveries) Next() (ConsumeResp, error) {
	select {
	case m := <-d.out:
		return m, nil
	case <-d.ctx.Done():
		return ConsumeResp{}, rpc.Errorf(rpc.CodeUnavailable, "mq: push session closed: %v", d.ctx.Err())
	}
}

func (d *partDeliveries) Close() {
	d.cancel()
	d.wg.Wait()
}

// Push opens one push stream per shard primary and merges their deliveries.
// The session survives broker crashes: a shard whose primary dies reopens
// against the survivor once the health lease re-forms the ring.
func (p *Partitioned) Push(ctx context.Context, topic, group string, lease time.Duration) (Deliveries, error) {
	shards := p.router.Shards()
	if len(shards) == 0 {
		return nil, rpc.Errorf(rpc.CodeUnavailable, "mq: no live brokers for topic %q", topic)
	}
	dctx, cancel := context.WithCancel(ctx)
	d := &partDeliveries{out: make(chan ConsumeResp), ctx: dctx, cancel: cancel}
	for _, label := range shards {
		d.wg.Add(1)
		go p.pushShard(d, label, topic, group, lease)
	}
	return d, nil
}

// pushShard keeps one shard's push stream alive for the session: resolve
// the primary (lowest live addr — the same rule publishers use), demand and
// hand over one message at a time, and on any stream death back off and
// re-resolve. A message received but not yet handed to the consumer when
// the session closes is nacked back so the redelivery is immediate.
func (p *Partitioned) pushShard(d *partDeliveries, label, topic, group string, lease time.Duration) {
	defer d.wg.Done()
	backoff := pushReopenBase
	for d.ctx.Err() == nil {
		reps := byAddr(p.router.GroupReplicas(label))
		if len(reps) == 0 {
			backoff = pushSleep(d.ctx, backoff)
			continue
		}
		st, err := reps[0].Stream(d.ctx, "Push", PushReq{Topic: topic, Group: group, LeaseNs: int64(lease)})
		if err != nil {
			backoff = pushSleep(d.ctx, backoff)
			continue
		}
		for {
			var m ConsumeResp
			if err := demand(st); err != nil || st.Recv(&m) != nil {
				// Stream over: primary crash, broker shutdown, or session end.
				// Back off and re-resolve; the ring may have a new primary.
				backoff = pushSleep(d.ctx, backoff)
				break
			}
			backoff = pushReopenBase // a delivery proves the stream healthy
			select {
			case d.out <- m:
			case <-d.ctx.Done():
				st.Cancel()
				// Best-effort: return the orphaned lease now rather than at
				// lease expiry.
				nctx, ncancel := context.WithTimeout(context.Background(), nackTimeout)
				p.Nack(nctx, topic, group, m) //nolint:errcheck
				ncancel()
				return
			}
		}
	}
}

// pushSleep waits out one backoff step (or the session's end) and returns
// the next, doubled up to pushReopenMax.
func pushSleep(ctx context.Context, backoff time.Duration) time.Duration {
	t := time.NewTimer(backoff)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	return min(2*backoff, pushReopenMax)
}

// Handler processes one delivered message for a Consumer: nil Acks it, an
// error Nacks it for redelivery (or dead-lettering once the queue's
// MaxAttempts is spent). ctx ends when the Consumer is closed.
type Handler func(ctx context.Context, m ConsumeResp) error

// Consumer is one member of a consumer group: a push session whose
// messages go to a Handler one at a time. A dead session (broker crash,
// conn loss) is reopened with backoff; lease redelivery covers whatever
// was in flight.
type Consumer struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// StartConsumer joins the group on the topic and runs h on every message
// the group delivers to this member until Close.
func StartConsumer(bus Bus, topic, group string, lease time.Duration, h Handler) *Consumer {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Consumer{cancel: cancel, done: make(chan struct{})}
	go c.run(ctx, bus, topic, group, lease, h)
	return c
}

func (c *Consumer) run(ctx context.Context, bus Bus, topic, group string, lease time.Duration, h Handler) {
	defer close(c.done)
	backoff := pushReopenBase
	for ctx.Err() == nil {
		if d, err := bus.Push(ctx, topic, group, lease); err == nil {
			for {
				m, err := d.Next()
				if err != nil {
					break
				}
				backoff = pushReopenBase
				if err := h(ctx, m); err != nil {
					nctx, ncancel := context.WithTimeout(context.Background(), nackTimeout)
					bus.Nack(nctx, topic, group, m) //nolint:errcheck // lease expiry redelivers anyway
					ncancel()
					continue
				}
				bus.Ack(context.Background(), topic, group, m) //nolint:errcheck // a lost ack costs a redelivery
			}
			d.Close()
		}
		backoff = pushSleep(ctx, backoff)
	}
}

// Close stops the consumer and waits for its loop to return; a handler
// call in progress sees its ctx end and is settled before Close returns.
// Idempotent.
func (c *Consumer) Close() {
	c.cancel()
	<-c.done
}
