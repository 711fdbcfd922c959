package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/core"
	"dsb/internal/mq"
	sn "dsb/internal/services/socialnetwork"
	"dsb/internal/svcutil"
)

func init() {
	register(&workload{
		name: "social-read",
		rate: 1200,
		slo:  20 * time.Millisecond,
		boot: func(opts core.Options, seed uint64) (system, error) {
			return bootSocial(opts, seed, readGraph)
		},
		codecMethod: "social.readTimeline/Read",
		codecValue:  func() any { return new(sn.ReadTimelineResp) },
		traceEvery:  2,
	})
	register(&workload{
		name: "social-compose",
		rate: 150,
		slo:  40 * time.Millisecond,
		boot: func(opts core.Options, seed uint64) (system, error) {
			return bootSocial(opts, seed, composeGraph)
		},
		codecMethod: "social.composePost/Compose",
		codecValue:  func() any { return new(sn.ComposePostResp) },
		traceEvery:  4, // ~500 spans per compose
	})
}

// socialShape is the seeded state and traffic mix of one social workload.
type socialShape struct {
	users int
	// authors > 0 makes users [0, authors) the only posters, each followed
	// by followers(a) users; otherwise every user follows followees users
	// drawn by popularity and everyone posts.
	authors   int
	followers func(a int) int
	// authorSkew is the Zipf exponent over authors.
	authorSkew float64
	followees  int
	// seedPosts is how many posts each poster composes during set-up.
	seedPosts int
	// composeShare is the share of operations that are POST /posts.
	composeShare float64
}

// readGraph: 800 users each following eight Zipf-popular accounts; the
// traffic is home-timeline reads only.
var readGraph = socialShape{users: 800, followees: 8, seedPosts: 2}

// composeGraph: a hundred authors followed by 106-160 users each; 80% of
// the traffic composes, 20% reads the followers' timelines. Every compose
// lengthens its followers' timelines, and a timeline write costs in
// proportion to the timeline's length, so the graph spreads the fan-out
// over many followers, with a mild Zipf skew over authors, to keep
// timelines short and the cost of a compose nearly flat over a run.
var composeGraph = socialShape{
	users: 3000, authors: 100, authorSkew: 0.5, seedPosts: 2, composeShare: 0.8,
	followers: func(a int) int { return 100 + int(60/math.Sqrt(float64(a+1))) },
}

type socialSys struct {
	shape  socialShape
	app    *core.App
	net    *sn.SocialNetwork
	users  []string
	tokens []string
	// followees[u] is the set of accounts user u follows.
	followees []map[string]bool
	// followersOf[a] lists the followers of author a (compose graph).
	followersOf [][]int
	pick        zipf // Zipf over users (readers) or authors (compose)
	order       []int
	// composed maps each post ID to the interval its compose call took.
	composed sync.Map
	composes atomic.Int64
}

// interval is when a compose call started and when its reply arrived.
type interval struct{ start, end time.Time }

func bootSocial(opts core.Options, seed uint64, shape socialShape) (*socialSys, error) {
	app := core.NewApp("perfbench", opts)
	net, err := sn.New(app, sn.Config{})
	if err != nil {
		app.Close()
		return nil, err
	}
	s := &socialSys{shape: shape, app: app, net: net}
	if err := s.seed(seed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// seed registers the users, builds the follow graph and composes the
// initial posts, all through the tiers' direct RPC clients.
func (s *socialSys) seed(seed uint64) error {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(seed, 0x50C1))
	n := s.shape.users
	s.users = make([]string, n)
	s.tokens = make([]string, n)
	s.followees = make([]map[string]bool, n)
	for i := range s.users {
		s.users[i] = fmt.Sprintf("u%04d", i)
		s.followees[i] = map[string]bool{}
	}
	err := parallel(n, func(i int) error {
		if err := s.net.User.Call(ctx, "Register", sn.RegisterReq{Username: s.users[i], Password: "pw"}, nil); err != nil {
			return err
		}
		var lr sn.LoginResp
		if err := s.net.User.Call(ctx, "Login", sn.LoginReq{Username: s.users[i], Password: "pw"}, &lr); err != nil {
			return err
		}
		s.tokens[i] = lr.Token
		return nil
	})
	if err != nil {
		return fmt.Errorf("register users: %w", err)
	}

	type edge struct{ follower, followee int }
	var edges []edge
	var posters []int
	if s.shape.authors > 0 {
		s.followersOf = make([][]int, s.shape.authors)
		for a := 0; a < s.shape.authors; a++ {
			// Followers are drawn from the non-authors.
			for _, f := range r.Perm(n - s.shape.authors)[:s.shape.followers(a)] {
				f += s.shape.authors
				edges = append(edges, edge{f, a})
				s.followersOf[a] = append(s.followersOf[a], f)
				s.followees[f][s.users[a]] = true
			}
			posters = append(posters, a)
		}
		s.pick = newZipf(s.shape.authors, s.shape.authorSkew)
	} else {
		// Popularity ranks are a seeded permutation of the users, so the
		// most-followed accounts are not simply the lowest-numbered.
		rank := r.Perm(n)
		pop := newZipf(n, 0.9)
		for u := 0; u < n; u++ {
			for len(s.followees[u]) < s.shape.followees {
				v := rank[pop.draw(r)]
				if v != u && !s.followees[u][s.users[v]] {
					s.followees[u][s.users[v]] = true
					edges = append(edges, edge{u, v})
				}
			}
			posters = append(posters, u)
		}
		s.pick = newZipf(n, 1.0)
		s.order = r.Perm(n)
	}
	// The social graph updates adjacency lists by read-modify-write, so
	// concurrent follows that share an account lose edges. Follows therefore
	// go in rounds in which no account appears twice; a round runs in
	// parallel.
	var rounds [][]edge
	free := make([]int, n) // first round in which the account is unused
	for _, e := range edges {
		k := max(free[e.follower], free[e.followee])
		if k == len(rounds) {
			rounds = append(rounds, nil)
		}
		rounds[k] = append(rounds[k], e)
		free[e.follower], free[e.followee] = k+1, k+1
	}
	for _, round := range rounds {
		if err := parallel(len(round), func(i int) error {
			e := round[i]
			return s.net.Graph.Call(ctx, "Follow", sn.FollowReq{Follower: s.users[e.follower], Followee: s.users[e.followee]}, nil)
		}); err != nil {
			return fmt.Errorf("follow graph: %w", err)
		}
	}
	err = parallel(len(posters)*s.shape.seedPosts, func(i int) error {
		u := posters[i%len(posters)]
		start := time.Now()
		var resp sn.ComposePostResp
		if err := s.net.Compose.Call(ctx, "Compose", sn.ComposePostReq{
			Token: s.tokens[u], Text: fmt.Sprintf("seed post %d by %s", i/len(posters), s.users[u]),
		}, &resp); err != nil {
			return err
		}
		s.composed.Store(resp.Post.ID, interval{start, time.Now()})
		return nil
	})
	if err != nil {
		return fmt.Errorf("seed posts: %w", err)
	}
	return nil
}

// warm reads every timeline a workload can request once, filling the
// timeline and post caches.
func (s *socialSys) warm(ctx context.Context) error {
	return parallel(len(s.users), func(u int) error {
		if s.shape.authors > 0 && u < s.shape.authors {
			return nil // authors follow nobody; no workload reads their timelines
		}
		var resp sn.ReadTimelineResp
		return s.net.ReadTimeline.Call(ctx, "Read", sn.ReadTimelineReq{User: s.users[u], Limit: 20}, &resp)
	})
}

func (s *socialSys) next(r *rand.Rand) op {
	if s.shape.authors == 0 {
		return s.readOp(s.order[s.pick.draw(r)])
	}
	a := s.pick.draw(r)
	if r.Float64() >= s.shape.composeShare {
		fs := s.followersOf[a]
		return s.readOp(fs[r.IntN(len(fs))])
	}
	text := fmt.Sprintf("post %d from %s for @%s and @%s, see http://example.com/p/%d",
		r.IntN(1_000_000), s.users[a], s.users[r.IntN(len(s.users))], s.users[r.IntN(len(s.users))], r.IntN(10_000))
	return func(ctx context.Context) error {
		_, err := s.compose(ctx, a, text)
		return err
	}
}

// timelinePost is the slice of a timeline entry the checks need.
type timelinePost struct {
	ID     string
	Author string
}

// readOp reads user u's home timeline through the front door and checks
// that it is non-empty, newest first, and made only of posts by u or by
// accounts u follows.
//
// Newest first is checked in real time: a post must never be listed above
// one whose compose started after its own compose had returned. Timelines
// are kept in delivery order, so two composes that overlap may land in
// either order, and their CreatedAt stamps may then disagree with the list.
func (s *socialSys) readOp(u int) op {
	return func(ctx context.Context) error {
		var posts []timelinePost
		if err := frontDoor(ctx, s.net.Frontend, "GET", "/timeline/"+s.users[u], nil, &posts); err != nil {
			return err
		}
		return s.checkTimeline(u, posts)
	}
}

func (s *socialSys) checkTimeline(u int, posts []timelinePost) error {
	if len(posts) == 0 {
		return checkf("timeline of %s is empty", s.users[u])
	}
	born := make([]*interval, len(posts))
	for i, p := range posts {
		if p.Author != s.users[u] && !s.followees[u][p.Author] {
			return checkf("timeline of %s holds post %s by %s, whom it does not follow", s.users[u], p.ID, p.Author)
		}
		// A post whose compose has not returned yet is concurrent with this
		// read and orders against nothing.
		if v, ok := s.composed.Load(p.ID); ok {
			iv := v.(interval)
			born[i] = &iv
		}
		for j := 0; j < i; j++ {
			if born[i] != nil && born[j] != nil && born[j].end.Before(born[i].start) {
				return checkf("timeline of %s lists %s above %s, composed after it", s.users[u], posts[j].ID, p.ID)
			}
		}
	}
	return nil
}

// compose posts text as author a through the front door and checks that
// the returned post ID is non-empty and never seen before.
func (s *socialSys) compose(ctx context.Context, a int, text string) (string, error) {
	var post timelinePost
	start := time.Now()
	if err := frontDoor(ctx, s.net.Frontend, "POST", "/posts", sn.PostBody{Token: s.tokens[a], Text: text}, &post); err != nil {
		return "", err
	}
	if post.ID == "" {
		return "", checkf("compose by %s returned an empty post ID", s.users[a])
	}
	if post.Author != s.users[a] {
		return "", checkf("compose by %s returned a post by %q", s.users[a], post.Author)
	}
	if _, dup := s.composed.LoadOrStore(post.ID, interval{start, time.Now()}); dup {
		return "", checkf("compose returned duplicate post ID %s", post.ID)
	}
	s.composes.Add(1)
	return post.ID, nil
}

// verify, for the compose workload, posts once more as the hottest author
// and checks that sampled followers see that post on their timelines.
func (s *socialSys) verify(ctx context.Context) error {
	if s.shape.authors == 0 {
		return nil
	}
	if s.composes.Load() == 0 {
		return checkf("no compose succeeded")
	}
	id, err := s.compose(ctx, 0, "last word from the hottest author")
	if err != nil {
		return fmt.Errorf("final compose: %w", err)
	}
	fs := s.followersOf[0]
	for _, f := range []int{fs[0], fs[len(fs)/2], fs[len(fs)-1]} {
		var posts []timelinePost
		if err := frontDoor(ctx, s.net.Frontend, "GET", "/timeline/"+s.users[f], nil, &posts); err != nil {
			return fmt.Errorf("final timeline read: %w", err)
		}
		found := false
		for _, p := range posts {
			found = found || p.ID == id
		}
		if !found {
			return checkf("follower %s does not see the hot author's last post %s", s.users[f], id)
		}
	}
	return nil
}

func (s *socialSys) broker() *mq.Cluster { return s.net.Broker }

func (s *socialSys) close() {
	s.net.Close()
	s.app.Close()
}

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^exp from a caller-supplied source.
type zipf []float64

func newZipf(n int, exp float64) zipf {
	cdf := make(zipf, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), exp)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func (z zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// parallel runs fn(0..n-1) on two workers per CPU and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	return svcutil.Parallel(2*runtime.GOMAXPROCS(0), n, fn)
}
