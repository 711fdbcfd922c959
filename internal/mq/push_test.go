package mq

// Push-based delivery: standing broker streams replacing the consume poll
// loop, and the wait-budget regression the push work exposed in the
// partitioned poll path.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dsb/internal/rpc"
)

// bootPushBroker boots one broker behind an RPC server and returns a typed
// client over a direct rpc.Client.
func bootPushBroker(t *testing.T) (*Broker, Client) {
	t.Helper()
	n := rpc.NewMem()
	b := NewBroker()
	srv := rpc.NewServer("broker")
	RegisterService(srv, b)
	addr, err := srv.Start(n, "broker:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := rpc.NewClient(n, "broker", addr)
	t.Cleanup(func() { c.Close() })
	return b, Client{C: c}
}

// TestPushDelivery drives the single-broker push path: messages published
// before and after the stream opens are all pushed, leases settle by Ack,
// and the queue drains without a single Consume poll.
func TestPushDelivery(t *testing.T) {
	b, bus := bootPushBroker(t)
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := bus.Publish(ctx, "t", []byte(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	d, err := bus.Push(ctx, "t", "g", time.Minute)
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	defer d.Close()
	got := map[string]bool{}
	for i := 0; i < 4; i++ {
		m, err := d.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got[string(m.Body)] = true
		if err := bus.Ack(ctx, "t", "g", m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if !got[fmt.Sprintf("pre%d", i)] {
			t.Fatalf("missing pre%d; got %v", i, got)
		}
	}
	// A publish against the standing stream is pushed without any new call.
	if _, err := bus.Publish(ctx, "t", []byte("live")); err != nil {
		t.Fatal(err)
	}
	m, err := d.Next()
	if err != nil || string(m.Body) != "live" {
		t.Fatalf("live delivery = %+v, %v", m, err)
	}
	if err := bus.Ack(ctx, "t", "g", m); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool {
		s := b.Topic("t").Subscribe("g").Stats()
		return s.Queued == 0 && s.InFlight == 0
	})
}

// TestPushNackRedelivers pins at-least-once under push: a nacked delivery
// comes back on the same standing stream.
func TestPushNackRedelivers(t *testing.T) {
	_, bus := bootPushBroker(t)
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Publish(ctx, "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	d, err := bus.Push(ctx, "t", "g", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Nack(ctx, "t", "g", m); err != nil {
		t.Fatal(err)
	}
	again, err := d.Next()
	if err != nil || string(again.Body) != "x" || again.Attempts != 2 {
		t.Fatalf("redelivery = %+v, %v; want attempt 2", again, err)
	}
	if err := bus.Ack(ctx, "t", "g", again); err != nil {
		t.Fatal(err)
	}
}

// TestPushSessionCloseWakesNext closes the session under a blocked Next and
// under a broker shutdown; both must wake promptly.
func TestPushSessionCloseWakesNext(t *testing.T) {
	_, bus := bootPushBroker(t)
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	d, err := bus.Push(ctx, "t", "g", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	woke := make(chan error, 1)
	go func() {
		_, err := d.Next()
		woke <- err
	}()
	time.Sleep(20 * time.Millisecond) // Next is parked on the idle stream
	d.Close()
	select {
	case err := <-woke:
		if err == nil {
			t.Fatal("Next returned a message from an idle closed session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still parked after Close")
	}
}

// TestPushDemandGate pins the demand gate: a push session leases only
// against Next, so past the messages Next returned each shard stream holds
// at most one leased, undelivered message and the rest of the backlog stays
// queued at the broker — where a crash or a depth cap can see it. On a
// single broker a Nacked message is therefore the very next delivery.
func TestPushDemandGate(t *testing.T) {
	const backlog = 10
	// maxInFlight samples the group's in-flight count for a while after Next
	// and returns the peak.
	maxInFlight := func(stats func() Stats) int {
		peak := 0
		for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
			peak = max(peak, stats().InFlight)
		}
		return peak
	}
	ctx := context.Background()

	t.Run("single", func(t *testing.T) {
		b, bus := bootPushBroker(t)
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < backlog; i++ {
			if _, err := bus.Publish(ctx, "t", []byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		d, err := bus.Push(ctx, "t", "g", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		first, err := d.Next()
		if err != nil || string(first.Body) != "m0" {
			t.Fatalf("first delivery = %+v, %v; want m0", first, err)
		}
		if peak := maxInFlight(b.Topic("t").Subscribe("g").Stats); peak > 1+1 {
			t.Fatalf("in-flight peaked at %d after one Next; want <= 2 (the returned message plus one per stream)", peak)
		}
		if err := bus.Nack(ctx, "t", "g", first); err != nil {
			t.Fatal(err)
		}
		again, err := d.Next()
		if err != nil || string(again.Body) != "m0" || again.Attempts != 2 {
			t.Fatalf("delivery after Nack = %q attempt %d, %v; want m0 attempt 2", again.Body, again.Attempts, err)
		}
	})

	t.Run("partitioned", func(t *testing.T) {
		const shards = 2
		rig, bus := bootPartitioned(t, shards, 1)
		if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < backlog; i++ {
			if _, err := bus.PublishKey(ctx, "t", fmt.Sprintf("k%d", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		d, err := bus.Push(ctx, "t", "g", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
		stats := func() Stats { return rig.cluster.GroupStats("t", "g") }
		if peak := maxInFlight(stats); peak > 1+shards {
			t.Fatalf("in-flight peaked at %d after one Next; want <= %d (the returned message plus one per shard stream)", peak, 1+shards)
		}
	})
}

// TestConsumerSettles drives the shared consumer loop: a handler error
// Nacks the message back for redelivery, a nil return Acks it, and Close
// stops the loop.
func TestConsumerSettles(t *testing.T) {
	b, bus := bootPushBroker(t)
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	attempts := make(chan int, 4)
	c := StartConsumer(bus, "t", "g", time.Minute, func(ctx context.Context, m ConsumeResp) error {
		attempts <- m.Attempts
		if m.Attempts == 1 {
			return fmt.Errorf("transient")
		}
		return nil
	})
	if _, err := bus.Publish(ctx, "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 2; want++ {
		select {
		case got := <-attempts:
			if got != want {
				t.Fatalf("delivery attempt %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("attempt %d never delivered", want)
		}
	}
	waitUntil(t, func() bool {
		s := b.Topic("t").Subscribe("g").Stats()
		return s.Queued == 0 && s.InFlight == 0 && s.Acked == 1
	})
	c.Close()
	c.Close() // idempotent
}

// TestPushPartitioned drives push across the sharded replicated tier: every
// keyed message lands exactly once through the merged per-shard streams and
// key-addressed acks retire mirrors as usual.
func TestPushPartitioned(t *testing.T) {
	rig, bus := bootPartitioned(t, 2, 2)
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	d, err := bus.Push(ctx, "t", "g", time.Minute)
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	defer d.Close()
	const n = 16
	for i := 0; i < n; i++ {
		if _, err := bus.PublishKey(ctx, "t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	got := map[string]string{}
	for len(got) < n {
		m, err := d.Next()
		if err != nil {
			t.Fatalf("Next after %d/%d: %v", len(got), n, err)
		}
		if _, dup := got[m.Key]; dup {
			t.Fatalf("key %q delivered twice", m.Key)
		}
		got[m.Key] = string(m.Body)
		if err := bus.Ack(ctx, "t", "g", m); err != nil {
			t.Fatalf("ack %q: %v", m.Key, err)
		}
	}
	for i := 0; i < n; i++ {
		if got[fmt.Sprintf("k%d", i)] != fmt.Sprintf("m%d", i) {
			t.Fatalf("key k%d = %q", i, got[fmt.Sprintf("k%d", i)])
		}
	}
	waitUntil(t, func() bool { return rig.cluster.GroupLag("t", "g") == 0 })
}

// TestPushPartitionedFailover crashes a shard primary under a standing push
// session: the per-shard loop reopens against the promoted mirror and the
// unacked message redelivers — at-least-once survives the crash without the
// consumer doing anything.
func TestPushPartitionedFailover(t *testing.T) {
	rig, bus := bootPartitioned(t, 1, 2)
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	d, err := bus.Push(ctx, "t", "g", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := bus.PublishKey(ctx, "t", "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	m, err := d.Next()
	if err != nil || m.Key != "k" {
		t.Fatalf("first delivery = %+v, %v", m, err)
	}
	// Leased on the primary, unacked. Kill it: the mirror copy must come
	// back through the reopened stream.
	rig.crash(0, rig.primary(0))
	again, err := d.Next()
	if err != nil || again.Key != "k" || string(again.Body) != "payload" {
		t.Fatalf("post-crash redelivery = %+v, %v", again, err)
	}
	if err := bus.Ack(ctx, "t", "g", again); err != nil {
		t.Fatalf("ack: %v", err)
	}
	sq := rig.brokers[0][1-rig.primary(0)].Queue("t@g")
	waitUntil(t, func() bool { return sq.Len()+sq.InFlight() == 0 })
}

// TestPartitionedConsumeWaitBudget is the wait-overshoot regression: with
// every shard primary hung, each per-shard poll used to get its own
// consumeGrace on top of its wait share, so a sweep over N shards burned
// wait + N*grace — 600ms here against a 200ms wait. The whole sweep must be
// bounded by wait plus ONE grace.
func TestPartitionedConsumeWaitBudget(t *testing.T) {
	rig, bus := bootPartitioned(t, 4, 1)
	ctx := context.Background()
	if err := bus.Subscribe(ctx, "t", "g", QueueConfig{}); err != nil {
		t.Fatal(err)
	}
	for _, srvs := range rig.servers {
		srvs[0].Hang() // a corpse the lease has not evicted: consumes all frames, answers none
	}
	const wait = 200 * time.Millisecond
	start := time.Now()
	_, err := bus.Consume(ctx, "t", "g", time.Minute, wait)
	took := time.Since(start)
	if err == nil {
		t.Fatal("consume against all-hung primaries reported success")
	}
	// Budget: wait + one consumeGrace, plus scheduling slack. The pre-fix
	// code took wait + 4*consumeGrace (~600ms).
	if limit := wait + consumeGrace + 150*time.Millisecond; took > limit {
		t.Fatalf("consume sweep took %v, want <= %v (grace must not sum across shards)", took, limit)
	}
}

// waitUntil polls cond until it holds or a 5s deadline trips.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
