package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/core"
	"dsb/internal/mq"
	ec "dsb/internal/services/ecommerce"
)

func init() {
	register(&workload{
		name:        "ecommerce-checkout",
		rate:        700,
		slo:         25 * time.Millisecond,
		boot:        bootShop,
		codecMethod: "ecom.catalogue/List",
		codecValue:  func() any { return new(ec.ItemsResp) },
		traceEvery:  2,
	})
}

const (
	shopItems    = 400
	shopTags     = 8    // shopItems/shopTags = 50 items per tag, a full page
	shopBrowsers = 1000 // uniform, so no cart grows large within a run
	shopBuyers   = 2000
	// shopOrderTopic and shopOrderGroup are the broker queue the commit
	// consumers drain.
	shopOrderTopic = "orderQueue"
	shopOrderGroup = "commit"
	// orderSamples is how many placed orders verify reads back.
	orderSamples = 20
)

type shopSys struct {
	app  *core.App
	shop *ec.Ecommerce
	// browsers add to carts they never check out; buyers run checkout
	// sessions. Each has its own session token.
	browsers, buyers []string
	tokens           map[string]string
	nextBuyer        atomic.Uint64
	// busy[b] is set while buyer b has a checkout session in flight;
	// dirty[b] while a session of b has begun but placed no order.
	busy, dirty []atomic.Bool

	mu     sync.Mutex
	orders []string // IDs of placed orders
}

func bootShop(opts core.Options, seed uint64) (system, error) {
	app := core.NewApp("perfbench", opts)
	shop, err := ec.New(app, ec.Config{})
	if err != nil {
		app.Close()
		return nil, err
	}
	s := &shopSys{app: app, shop: shop, tokens: map[string]string{}, busy: make([]atomic.Bool, shopBuyers), dirty: make([]atomic.Bool, shopBuyers)}
	if err := s.seed(seed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// seed loads the catalogue and registers every shopper with a balance no
// run can exhaust.
func (s *shopSys) seed(seed uint64) error {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(seed, 0x5809))
	items := make([]ec.Item, shopItems)
	for i := range items {
		items[i] = ec.Item{
			ID: fmt.Sprintf("item-%03d", i), Name: fmt.Sprintf("Item %d", i),
			Tags:       []string{fmt.Sprintf("tag%d", i%shopTags)},
			PriceCents: int64(100 + r.IntN(10_000)), WeightGram: int64(50 + r.IntN(2000)),
			Stock: 1 << 40,
		}
	}
	if err := parallel(len(items), func(i int) error {
		return s.shop.Catalogue.Call(ctx, "Add", ec.AddItemReq{Item: items[i]}, nil)
	}); err != nil {
		return fmt.Errorf("seed catalogue: %w", err)
	}
	for i := 0; i < shopBrowsers; i++ {
		s.browsers = append(s.browsers, fmt.Sprintf("browser%04d", i))
	}
	for i := 0; i < shopBuyers; i++ {
		s.buyers = append(s.buyers, fmt.Sprintf("buyer%04d", i))
	}
	all := append(append([]string(nil), s.browsers...), s.buyers...)
	tokens := make([]string, len(all))
	if err := parallel(len(all), func(i int) error {
		if err := s.shop.User.Call(ctx, "Register", ec.RegisterUserReq{Username: all[i], Password: "pw", BalanceCents: 1 << 50}, nil); err != nil {
			return err
		}
		var lr ec.LoginResp
		if err := s.shop.User.Call(ctx, "Login", ec.LoginReq{Username: all[i], Password: "pw"}, &lr); err != nil {
			return err
		}
		tokens[i] = lr.Token
		return nil
	}); err != nil {
		return fmt.Errorf("register shoppers: %w", err)
	}
	for i, u := range all {
		s.tokens[u] = tokens[i]
	}
	return nil
}

// warm lists every tag once, filling the catalogue cache.
func (s *shopSys) warm(ctx context.Context) error {
	return parallel(shopTags, func(t int) error {
		var items []ec.Item
		return frontDoor(ctx, s.shop.Frontend, "GET", fmt.Sprintf("/catalogue?tag=tag%d", t), nil, &items)
	})
}

// next draws 60% catalogue pages, 20% cart adds by browsers and 20%
// checkout sessions by buyers.
func (s *shopSys) next(r *rand.Rand) op {
	switch x := r.Float64(); {
	case x < 0.6:
		tag := fmt.Sprintf("tag%d", r.IntN(shopTags))
		return func(ctx context.Context) error { return s.browse(ctx, tag) }
	case x < 0.8:
		user := s.browsers[r.IntN(shopBrowsers)]
		item := fmt.Sprintf("item-%03d", r.IntN(shopItems))
		return func(ctx context.Context) error { return s.addToCart(ctx, user, item, 1) }
	default:
		lines := make([]string, 1+r.IntN(3))
		for i := range lines {
			lines[i] = fmt.Sprintf("item-%03d", r.IntN(shopItems))
		}
		return func(ctx context.Context) error { return s.checkout(ctx, lines) }
	}
}

// browse fetches one tag's catalogue page and checks that it is a full
// page of items carrying that tag.
func (s *shopSys) browse(ctx context.Context, tag string) error {
	var items []ec.Item
	if err := frontDoor(ctx, s.shop.Frontend, "GET", "/catalogue?tag="+tag, nil, &items); err != nil {
		return err
	}
	if len(items) != shopItems/shopTags {
		return checkf("catalogue page for %s has %d items, want %d", tag, len(items), shopItems/shopTags)
	}
	for _, it := range items {
		if len(it.Tags) == 0 || it.Tags[0] != tag {
			return checkf("catalogue page for %s holds %s tagged %v", tag, it.ID, it.Tags)
		}
	}
	return nil
}

// addToCart adds qty of item to user's cart and checks the returned cart
// holds the item.
func (s *shopSys) addToCart(ctx context.Context, user, item string, qty int64) error {
	var lines []ec.CartLine
	if err := frontDoor(ctx, s.shop.Frontend, "POST", "/cart", ec.CartBody{Token: s.tokens[user], ItemID: item, Quantity: qty}, &lines); err != nil {
		return err
	}
	for _, l := range lines {
		if l.ItemID == item {
			return nil
		}
	}
	return checkf("cart of %s lacks %s just added", user, item)
}

// checkout is one session: fill a buyer's cart and place the order. The
// buyer is taken round-robin, skipping any buyer whose previous session is
// still in flight, so no two sessions share a cart.
func (s *shopSys) checkout(ctx context.Context, items []string) error {
	b := int(s.nextBuyer.Add(1) % shopBuyers)
	for !s.busy[b].CompareAndSwap(false, true) {
		b = (b + 1) % shopBuyers
	}
	defer s.busy[b].Store(false)
	user := s.buyers[b]
	// A failed session may leave items in the cart for the buyer's next
	// order, which then holds more units than its own session added.
	leftovers := s.dirty[b].Swap(true)
	for _, item := range items {
		if err := s.addToCart(ctx, user, item, 1); err != nil {
			return err
		}
	}
	var order ec.Order
	if err := frontDoor(ctx, s.shop.Frontend, "POST", "/orders", ec.OrderBody{Token: s.tokens[user], Shipping: "standard"}, &order); err != nil {
		return err
	}
	s.dirty[b].Store(false)
	if order.ID == "" || order.Username != user || order.Status != ec.StatusQueued {
		return checkf("order for %s came back as id=%q user=%q status=%q", user, order.ID, order.Username, order.Status)
	}
	var qty int64
	for _, l := range order.Lines {
		qty += l.Quantity
	}
	if qty != int64(len(items)) && !(leftovers && qty > int64(len(items))) {
		return checkf("order %s holds %d units, want %d", order.ID, qty, len(items))
	}
	s.mu.Lock()
	s.orders = append(s.orders, order.ID)
	s.mu.Unlock()
	return nil
}

// verify drains the order queue, checks that the broker acked every
// published order and dead-lettered none, and reads sampled orders back
// through the front door to check they committed.
func (s *shopSys) verify(ctx context.Context) error {
	if err := s.drain(10 * time.Second); err != nil {
		return err
	}
	st := s.shop.Broker.GroupStats(shopOrderTopic, shopOrderGroup)
	if st.Published != st.Acked || st.DeadLettered != 0 {
		return checkf("order queue published=%d acked=%d dead-lettered=%d", st.Published, st.Acked, st.DeadLettered)
	}
	s.mu.Lock()
	orders := append([]string(nil), s.orders...)
	s.mu.Unlock()
	if len(orders) == 0 {
		return checkf("no order was placed")
	}
	for i := 0; i < orderSamples; i++ {
		id := orders[i*len(orders)/orderSamples]
		var o ec.Order
		if err := frontDoor(ctx, s.shop.Frontend, "GET", "/orders/"+id, nil, &o); err != nil {
			return fmt.Errorf("read back order %s: %w", id, err)
		}
		if o.ID != id || o.Status != ec.StatusCommitted {
			return checkf("order %s reads back as id=%q status=%q", id, o.ID, o.Status)
		}
	}
	return nil
}

// drain waits until the commit group's backlog is empty.
func (s *shopSys) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.shop.Broker.GroupLag(shopOrderTopic, shopOrderGroup) > 0 {
		if time.Now().After(deadline) {
			return checkf("order queue still has %d messages after %v", s.shop.Broker.GroupLag(shopOrderTopic, shopOrderGroup), timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func (s *shopSys) broker() *mq.Cluster { return s.shop.Broker }

func (s *shopSys) close() {
	s.shop.Close()
	s.app.Close()
}
