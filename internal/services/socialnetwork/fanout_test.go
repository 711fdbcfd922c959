package socialnetwork

import (
	"context"
	"testing"
	"time"

	"dsb/internal/core"
)

// bootAsync boots a deployment with the broker-backed fan-out path and
// registers + logs in the given users.
func bootAsync(t *testing.T, cfg Config, users ...string) (*SocialNetwork, map[string]string) {
	t.Helper()
	cfg.SearchShards = 2
	cfg.AsyncFanout = true
	app := core.NewApp("social-async", core.Options{})
	t.Cleanup(func() { app.Close() })
	sn, err := New(app, cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	t.Cleanup(sn.Close)
	ctx := context.Background()
	tokens := make(map[string]string, len(users))
	for _, u := range users {
		if err := sn.User.Call(ctx, "Register", RegisterReq{Username: u, Password: "pw-" + u}, nil); err != nil {
			t.Fatalf("register %s: %v", u, err)
		}
		var lr LoginResp
		if err := sn.User.Call(ctx, "Login", LoginReq{Username: u, Password: "pw-" + u}, &lr); err != nil {
			t.Fatalf("login %s: %v", u, err)
		}
		tokens[u] = lr.Token
	}
	return sn, tokens
}

// TestAsyncFanoutReadYourWrites: with the broker-backed path, a compose
// returns at broker ack — before followers are hydrated — yet the author
// must see their own post immediately (it is prepended synchronously), and
// after the fanout group drains, every follower converges on it.
func TestAsyncFanoutReadYourWrites(t *testing.T) {
	sn, tokens := bootAsync(t, Config{}, "alice", "bob", "carol")
	ctx := context.Background()
	for _, f := range []string{"bob", "carol"} {
		if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: f, Followee: "alice"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	post := compose(t, sn, tokens["alice"], "hello from the async path")

	// Read-your-writes: the author's timeline has the post the instant
	// compose returns, no drain needed.
	if posts := timeline(t, sn, "alice"); len(posts) != 1 || posts[0].ID != post.ID {
		t.Fatalf("author timeline = %+v, want own post immediately", posts)
	}

	// Followers converge once the consumer group drains the backlog.
	if err := sn.DrainFanout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, reader := range []string{"bob", "carol"} {
		posts := timeline(t, sn, reader)
		if len(posts) != 1 || posts[0].ID != post.ID {
			t.Fatalf("%s timeline after drain = %+v", reader, posts)
		}
	}
}

// TestAsyncFanoutManyPosts pushes a burst of composes through the broker and
// checks the follower timeline converges on all of them, newest first —
// at-least-once delivery with the shared consumer group never drops or
// double-counts a post under normal operation.
func TestAsyncFanoutManyPosts(t *testing.T) {
	sn, tokens := bootAsync(t, Config{FanoutConsumers: 3}, "alice", "bob")
	ctx := context.Background()
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	const n = 20
	ids := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		ids[compose(t, sn, tokens["alice"], "burst post").ID] = true
	}
	if err := sn.DrainFanout(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	posts := timeline(t, sn, "bob")
	if len(posts) != n {
		t.Fatalf("bob sees %d posts, want %d", len(posts), n)
	}
	for _, p := range posts {
		if !ids[p.ID] {
			t.Fatalf("unexpected post %s in timeline", p.ID)
		}
		delete(ids, p.ID)
	}
}

// TestPushFanoutDelivery runs the async path over a sharded broker tier:
// each consumer takes delivery on one standing stream per shard primary,
// and followers must converge exactly as on a single broker.
func TestPushFanoutDelivery(t *testing.T) {
	sn, tokens := bootAsync(t, Config{BrokerShards: 2, FanoutConsumers: 2}, "alice", "bob", "carol")
	ctx := context.Background()
	for _, f := range []string{"bob", "carol"} {
		if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: f, Followee: "alice"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	const n = 10
	ids := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		ids[compose(t, sn, tokens["alice"], "pushed post").ID] = true
	}
	if err := sn.DrainFanout(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, reader := range []string{"bob", "carol"} {
		posts := timeline(t, sn, reader)
		if len(posts) != n {
			t.Fatalf("%s sees %d posts, want %d", reader, len(posts), n)
		}
		for _, p := range posts {
			if !ids[p.ID] {
				t.Fatalf("unexpected post %s in %s's timeline", p.ID, reader)
			}
		}
	}
}

// TestAsyncFanoutClose stops the consumer tier cleanly: Close returns (no
// deadlock against a consumer parked on its push stream) and a post composed afterwards still
// succeeds — the write path only needs the broker ack, not a live consumer.
func TestAsyncFanoutClose(t *testing.T) {
	sn, tokens := bootAsync(t, Config{}, "alice", "bob")
	ctx := context.Background()
	if err := sn.Graph.Call(ctx, "Follow", FollowReq{Follower: "bob", Followee: "alice"}, nil); err != nil {
		t.Fatal(err)
	}
	compose(t, sn, tokens["alice"], "before close")
	if err := sn.DrainFanout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { sn.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return; consumer stuck in push stream")
	}
	// The write path survives: compose returns at broker ack and the author
	// still reads their own write; the event just waits for a consumer.
	post := compose(t, sn, tokens["alice"], "after close")
	if posts := timeline(t, sn, "alice"); len(posts) != 2 || posts[0].ID != post.ID {
		t.Fatalf("author timeline after close = %+v", posts)
	}
	if lag := sn.Broker.GroupLag(timelineTopic, fanoutGroup); lag != 1 {
		t.Fatalf("orphaned event lag = %d, want 1", lag)
	}
}
