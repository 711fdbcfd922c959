package ecommerce

import (
	"context"
	"errors"
	"time"

	"dsb/internal/mq"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// registerQueueMaster installs the queueMaster service: Enqueue publishes
// the order ID to the broker tier's orderQueue topic and returns once the
// broker has acknowledged it, and a pool of consumer workers in the
// "commit" consumer group takes pushed orders one at a time, validates
// stock, decrements inventory, and marks each order committed. The broker
// redelivers any order whose worker dies mid-commit (lease expiry), so a
// crashed worker never loses an order; with one worker, commits stay
// strictly serialized — the point the paper identifies as constraining
// queueMaster's scalability at high load.

// orderTopic and orderGroup name the broker topic orders flow through and
// the consumer group that commits them.
const (
	orderTopic = "orderQueue"
	orderGroup = "commit"
)

// maxQueueDepth bounds the order queue, enforced broker-side against
// queued AND in-flight orders (a queue with everything leased out is
// saturated, not empty). Beyond it, Publish sheds with CodeOverloaded —
// the same admission contract every other tier speaks — so callers see a
// retryable "not now" instead of unbounded queueing delay.
const maxQueueDepth = 256

// orderMaxAttempts is the poison guard: an order redelivered this many
// times moves to the dead-letter queue instead of head-of-line-blocking
// the topic forever. Sized far above any transient-overload retry run.
const orderMaxAttempts = 512

// overloadRetryBackoff spaces redeliveries of an order whose commit was shed
// by the catalogue tier, so the consumer does not hot-loop on a downstream
// that just said "not now".
const overloadRetryBackoff = 5 * time.Millisecond

// orderLease bounds one commit attempt before the broker assumes the
// worker died and redelivers.
const orderLease = 30 * time.Second

// ConfigureOrderBroker declares the order topic on a broker with the
// depth/retry bounds above and subscribes the commit group — it must run at
// broker boot, before any producer, so no publish misses the group.
func ConfigureOrderBroker(b *mq.Broker) {
	t := b.Topic(orderTopic)
	t.Configure(mq.QueueConfig{MaxDepth: maxQueueDepth, MaxAttempts: orderMaxAttempts})
	t.Subscribe(orderGroup)
}

// errCommitShed nacks an order whose commit the catalogue tier shed.
var errCommitShed = errors.New("queueMaster: commit shed by catalogue")

type queueMaster struct {
	db        svcutil.DB
	catalogue svcutil.Caller
	workers   []*mq.Consumer
}

func registerQueueMaster(srv *rpc.Server, bus mq.Bus, db svcutil.DB, catalogue svcutil.Caller, workers int) *queueMaster {
	qm := &queueMaster{db: db, catalogue: catalogue}
	svcutil.Handle(srv, "Enqueue", func(ctx *rpc.Ctx, req *GetOrderReq) (*struct{}, error) {
		if req.ID == "" {
			return nil, rpc.Errorf(rpc.CodeBadRequest, "queueMaster: order ID required")
		}
		// Publish returns after the broker ack; a full topic surfaces the
		// broker's CodeOverloaded to the caller unchanged. The order ID is
		// the message key: an enqueue retried through a broker failover
		// dedups instead of committing twice.
		_, err := bus.PublishKey(ctx, orderTopic, req.ID, []byte(req.ID))
		return nil, err
	})
	for i := 0; i < max(workers, 1); i++ {
		qm.workers = append(qm.workers, mq.StartConsumer(bus, orderTopic, orderGroup, orderLease, qm.handle))
	}
	return qm
}

// handle is one commit worker's step: a member of the "commit" consumer
// group holding one pushed order at a time. A commit shed by the catalogue
// tier (CodeOverloaded) is not a verdict on the order: after a short
// backoff — no hot loop on a downstream that just said "not now" — the
// order is Nacked back to the front of the queue and redelivered once the
// tier has room, instead of being swallowed into a StatusRejected.
func (qm *queueMaster) handle(ctx context.Context, msg mq.ConsumeResp) error {
	if !qm.commit(string(msg.Body)) {
		return nil
	}
	t := time.NewTimer(overloadRetryBackoff)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
	return errCommitShed
}

// commit applies one order's stock decrements. It returns true when the
// order must be redelivered: the catalogue shed the call with
// CodeOverloaded, meaning the tier was healthy but full, so the order stays
// StatusQueued rather than becoming a spurious rejection.
func (qm *queueMaster) commit(orderID string) (retry bool) {
	ctx := &rpc.Ctx{Context: context.Background(), Method: "commit", Service: "ecom.queueMaster"}
	order, found, err := loadOrder(ctx, qm.db, orderID)
	if err != nil || !found {
		return false
	}
	if order.Status != StatusQueued {
		return false // already processed (redelivery)
	}
	status := StatusCommitted
	var decremented []CartLine
	for _, line := range order.Lines {
		err := qm.catalogue.Call(ctx, "AdjustStock", AdjustStockReq{ItemID: line.ItemID, Delta: -line.Quantity}, nil)
		if err == nil {
			decremented = append(decremented, line)
			continue
		}
		// Roll back the lines already taken.
		for _, d := range decremented {
			qm.catalogue.Call(ctx, "AdjustStock", AdjustStockReq{ItemID: d.ItemID, Delta: d.Quantity}, nil) //nolint:errcheck
		}
		if transport.IsCode(err, transport.CodeOverloaded) {
			return true
		}
		status = StatusRejected
		break
	}
	order.Status = status
	storeOrder(ctx, qm.db, order) //nolint:errcheck // terminal status write is best-effort on teardown
	return false
}

// Close stops the consumer workers. Unprocessed orders, and an order whose
// commit is still shed, stay with the broker. Idempotent: both the
// deployment's Close and the app's OnClose hook may call it.
func (qm *queueMaster) Close() {
	for _, w := range qm.workers {
		w.Close()
	}
}
