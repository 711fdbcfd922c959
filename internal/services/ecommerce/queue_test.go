package ecommerce

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dsb/internal/core"
	"dsb/internal/docstore"
	"dsb/internal/mq"
	"dsb/internal/rpc"
	"dsb/internal/svcutil"
	"dsb/internal/transport"
)

// bootQueueRig wires a queueMaster against a real order store, a networked
// broker tier, and a stub catalogue whose AdjustStock behavior is driven by
// adjust(callNumber).
func bootQueueRig(t *testing.T, adjust func(call int) error) (broker *mq.Broker, enqueue svcutil.Caller, db svcutil.DB) {
	t.Helper()
	app := core.NewApp("ecom-queue", core.Options{})
	t.Cleanup(func() { app.Close() })
	store := docstore.NewStore()
	if _, err := app.StartRPC("ecom.db-orders", func(s *rpc.Server) {
		docstore.RegisterService(s, store)
	}); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	if _, err := app.StartRPC("ecom.catalogue", func(s *rpc.Server) {
		svcutil.Handle(s, "AdjustStock", func(ctx *rpc.Ctx, req *AdjustStockReq) (*GetItemResp, error) {
			if err := adjust(int(calls.Add(1))); err != nil {
				return nil, err
			}
			return &GetItemResp{Found: true}, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	broker = mq.NewBroker()
	ConfigureOrderBroker(broker)
	if _, err := app.StartRPC("ecom.broker", func(s *rpc.Server) {
		mq.RegisterService(s, broker)
	}); err != nil {
		t.Fatal(err)
	}
	dbC, err := app.RPC("ecom.queueMaster", "ecom.db-orders")
	if err != nil {
		t.Fatal(err)
	}
	db = svcutil.DB{C: dbC}
	cat, err := app.RPC("ecom.queueMaster", "ecom.catalogue")
	if err != nil {
		t.Fatal(err)
	}
	busC, err := app.RPC("ecom.queueMaster", "ecom.broker")
	if err != nil {
		t.Fatal(err)
	}
	var qm *queueMaster
	if _, err := app.StartRPC("ecom.queueMaster", func(s *rpc.Server) {
		qm = registerQueueMaster(s, mq.Client{C: busC}, db, cat, 1)
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(qm.Close)
	enqueue, err = app.RPC("client", "ecom.queueMaster")
	if err != nil {
		t.Fatal(err)
	}
	return broker, enqueue, db
}

func queueOrder(t *testing.T, db svcutil.DB, id string) {
	t.Helper()
	ctx := &rpc.Ctx{Context: context.Background(), Method: "test", Service: "test"}
	if err := storeOrder(ctx, db, Order{
		ID: id, Username: "u", Status: StatusQueued,
		Lines: []CartLine{{ItemID: "sock", Quantity: 1}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadedCommitRetriesNotRejects sheds the first AdjustStock calls
// with CodeOverloaded: the order must stay queued and be redelivered until
// the tier has room, then commit — never a spurious StatusRejected.
func TestOverloadedCommitRetriesNotRejects(t *testing.T) {
	broker, enqueue, db := bootQueueRig(t, func(call int) error {
		if call <= 3 {
			return rpc.Errorf(rpc.CodeOverloaded, "catalogue: admission shed")
		}
		return nil
	})
	ctx := context.Background()
	queueOrder(t, db, "ord-1")
	if err := enqueue.Call(ctx, "Enqueue", GetOrderReq{ID: "ord-1"}, nil); err != nil {
		t.Fatal(err)
	}

	rctx := &rpc.Ctx{Context: ctx, Method: "test", Service: "test"}
	deadline := time.Now().Add(5 * time.Second)
	for {
		order, found, err := loadOrder(rctx, db, "ord-1")
		if err != nil {
			t.Fatal(err)
		}
		if found && order.Status == StatusRejected {
			t.Fatal("overloaded commit was swallowed into StatusRejected")
		}
		if found && order.Status == StatusCommitted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("order still %q after shed retries", order.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The commit is visible before the (one-way) ack necessarily lands at
	// the broker; poll the group backlog to zero rather than snapshot it.
	lagDeadline := time.Now().Add(5 * time.Second)
	for {
		if lag := broker.Topic(orderTopic).GroupLag(orderGroup); lag == 0 {
			break
		} else if time.Now().After(lagDeadline) {
			t.Fatalf("order group not drained: lag=%d", lag)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEnqueueShedsWhenFull pins the consumer on an order whose commit is
// perpetually shed, fills the queue to maxQueueDepth, and expects the next
// Enqueue to surface CodeOverloaded to the caller instead of queueing
// without bound.
func TestEnqueueShedsWhenFull(t *testing.T) {
	_, enqueue, db := bootQueueRig(t, func(int) error {
		return rpc.Errorf(rpc.CodeOverloaded, "catalogue: admission shed")
	})
	ctx := context.Background()
	// ord-0 is real and its commit always sheds: after every redelivery it
	// returns to the queue front, so nothing behind it ever drains.
	queueOrder(t, db, "ord-0")
	if err := enqueue.Call(ctx, "Enqueue", GetOrderReq{ID: "ord-0"}, nil); err != nil {
		t.Fatal(err)
	}
	// Filler IDs must be distinct: Enqueue keys messages by order ID, so a
	// repeated ID dedups broker-side instead of deepening the queue.
	filled := 1
	for i := 1; i < maxQueueDepth; i++ {
		if err := enqueue.Call(ctx, "Enqueue", GetOrderReq{ID: fmt.Sprintf("ord-filler-%d", i)}, nil); err != nil {
			if transport.IsCode(err, transport.CodeOverloaded) {
				break // consumer timing already pushed depth to the cap
			}
			t.Fatal(err)
		}
		filled++
	}
	if filled < maxQueueDepth/2 {
		t.Fatalf("only %d orders enqueued before shed; cap not exercised", filled)
	}
	err := enqueue.Call(ctx, "Enqueue", GetOrderReq{ID: "ord-overflow"}, nil)
	if !transport.IsCode(err, transport.CodeOverloaded) {
		t.Fatalf("enqueue beyond cap = %v, want CodeOverloaded", err)
	}
}

// TestCloseStopsOrderConsumers shuts the deployment down with the commit
// workers parked on their standing push streams: Close must return within
// a second, and once the app is closed every session, stream, and reopen
// loop must have unwound (goroutines back to the pre-boot baseline).
func TestCloseStopsOrderConsumers(t *testing.T) {
	before := runtime.NumGoroutine()
	ec := bootEcom(t)
	ctx := context.Background()
	token := login(t, ec, "closer", 100000)
	if err := ec.Cart.Call(ctx, "Add", CartAddReq{Username: "closer", ItemID: "sock-red", Quantity: 1}, nil); err != nil {
		t.Fatal(err)
	}
	var placed PlaceOrderResp
	if err := ec.Orders.Call(ctx, "Place", PlaceOrderReq{Token: token, Shipping: "standard"}, &placed); err != nil {
		t.Fatal(err)
	}
	if _, err := ec.WaitForOrder(placed.Order.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { ec.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close did not return within 1s; a commit worker is stuck on its push stream")
	}
	ec.App.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+5 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
