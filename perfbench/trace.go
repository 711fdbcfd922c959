package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsb/internal/codec"
	"dsb/internal/core"
	"dsb/internal/kv"
	"dsb/internal/rest"
	"dsb/internal/rpc"
	"dsb/internal/transport"
)

// The traced run records one span at each hook boundary the stack already
// exposes: client calls (core.Options.ClientMiddleware), RPC servers
// (RPCServerHook → rpc.Server.Use) and the REST front door
// (RESTServerHook → rest.Server.Use). Span identity rides in a call header
// across hops and in the handler's context inside a service. Spans stay in
// memory until the phase ends.

// spanHeader carries "<trace>-<span>" in hex to the callee.
const spanHeader = "Perfbench-Span"

// maxSpans bounds the in-memory span buffer; spans beyond it are dropped
// and counted.
const maxSpans = 600_000

// Layers are the stack's modules; a span's time counts to its layer.
const (
	layerREST = iota
	layerRPC
	layerServices
	layerKV
	layerDocstore
	layerMQ
	numLayers
)

var layerNames = [numLayers]string{"rest", "rpc", "services", "kv", "docstore", "mq"}

// Span kinds.
const (
	kindFront      = iota // front-door call as the client issues it: a tree root
	kindRESTClient        // front-door HTTP exchange (client middleware)
	kindRESTServer        // front-door handler
	kindCall              // RPC call, client side
	kindServer            // RPC handler
)

type span struct {
	id, parent, trace uint64
	op                int // operation index, roots only
	kind, layer       uint8
	oneway, failed    bool
	service, method   string
	start, end        int64 // ns since the tracer's base time
	bytes             int   // request + reply payload, RPC handlers only
	// tax is the tracer's own work after an RPC handler returned and before
	// its reply goes back (decoding kv replies, keeping codec samples). It
	// lies inside the caller's span, so the analysis takes it out of the
	// hop overhead and of the caller's critical-path time.
	tax int64
}

func (s *span) dur() int64 { return s.end - s.start }

type spanRef struct{ trace, span uint64 }

type spanKey struct{}

// sampledOp rides in the context of an operation the traced run records.
type sampledOp struct {
	t  *tracer
	op int
}

type opKey struct{}

type tracer struct {
	base  time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span

	dropped      atomic.Int64
	kvKeys       atomic.Int64
	kvHits       atomic.Int64
	codecMethod  string
	codecSeen    atomic.Int64
	codecSamples [][]byte // guarded by mu
}

func newTracer(codecMethod string) *tracer {
	return &tracer{base: time.Now(), codecMethod: codecMethod, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// options returns app options that install the tracer's hooks. Built-in
// tracing stays off, as in the untraced run.
func (t *tracer) options() core.Options {
	return core.Options{
		DisableTracing:   true,
		ClientMiddleware: []transport.Middleware{t.client},
		RPCServerHook:    t.rpcHook,
		RESTServerHook:   t.restHook,
	}
}

// frontDoor issues one call to an application's REST front door. When the
// operation is sampled, the call is a request's root span, covering the
// client's JSON encoding and decoding as well as the HTTP exchange.
func frontDoor(ctx context.Context, c *rest.Client, method, path string, req, resp any) error {
	so, ok := ctx.Value(opKey{}).(sampledOp)
	if !ok || !so.t.on.Load() {
		return c.Do(ctx, method, path, req, resp)
	}
	t := so.t
	s := span{id: t.ids.Add(1), op: so.op, kind: kindFront, layer: layerREST, service: c.Target(), method: method}
	s.trace = s.id
	ctx = context.WithValue(ctx, spanKey{}, spanRef{s.trace, s.id})
	s.start = t.now()
	err := c.Do(ctx, method, path, req, resp)
	s.end = t.now()
	s.failed = err != nil
	t.add(s)
	return err
}

func (t *tracer) client(next transport.Invoker) transport.Invoker {
	return func(ctx context.Context, call *transport.Call) error {
		if !t.on.Load() {
			return next(ctx, call)
		}
		s := span{id: t.ids.Add(1), op: -1, kind: kindCall, layer: layerRPC,
			service: call.Target, method: call.Method, oneway: call.OneWay || call.Stream}
		ref, ok := ctx.Value(spanKey{}).(spanRef)
		if !ok {
			return next(ctx, call) // background work outside any sampled request
		}
		s.trace, s.parent = ref.trace, ref.span
		if strings.Contains(call.Method, " ") { // REST methods read "VERB /path"
			s.kind, s.layer = kindRESTClient, layerREST
		}
		call.SetHeader(spanHeader, strconv.FormatUint(s.trace, 16)+"-"+strconv.FormatUint(s.id, 16))
		s.start = t.now()
		err := next(ctx, call)
		s.end = t.now()
		s.failed = err != nil
		t.add(s)
		return err
	}
}

func parseRef(v string) (spanRef, bool) {
	a, b, ok := strings.Cut(v, "-")
	if !ok {
		return spanRef{}, false
	}
	tr, err1 := strconv.ParseUint(a, 16, 64)
	sp, err2 := strconv.ParseUint(b, 16, 64)
	return spanRef{tr, sp}, err1 == nil && err2 == nil
}

// layerOf maps a service name to its module: the cache tiers are kv, the
// document stores docstore, the broker mq, everything else a service.
func layerOf(service string) uint8 {
	switch {
	case strings.Contains(service, ".mc-"):
		return layerKV
	case strings.Contains(service, ".db-"):
		return layerDocstore
	case strings.HasSuffix(service, ".broker"):
		return layerMQ
	}
	return layerServices
}

func (t *tracer) rpcHook(service string, srv *rpc.Server) {
	layer := layerOf(service)
	srv.Use(func(ctx *rpc.Ctx, payload []byte, next rpc.Handler) ([]byte, error) {
		ref, ok := parseRef(ctx.Headers[spanHeader])
		if !ok || !t.on.Load() {
			return next(ctx, payload)
		}
		s := span{id: t.ids.Add(1), parent: ref.span, trace: ref.trace, op: -1, kind: kindServer,
			layer: layer, service: service, method: ctx.Method}
		ctx.Context = context.WithValue(ctx.Context, spanKey{}, spanRef{ref.trace, s.id})
		s.start = t.now()
		resp, err := next(ctx, payload)
		s.end = t.now()
		s.failed = err != nil
		s.bytes = len(payload) + len(resp)
		if err == nil {
			t.observe(layer, service, ctx.Method, resp)
			s.tax = t.now() - s.end
		}
		t.add(s)
		return resp, err
	})
}

func (t *tracer) restHook(service string, srv *rest.Server) {
	srv.Use(func(ctx *rest.Ctx, body []byte, next rest.Handler) (any, error) {
		ref, ok := parseRef(ctx.Header(spanHeader))
		if !ok || !t.on.Load() {
			return next(ctx, body)
		}
		s := span{id: t.ids.Add(1), parent: ref.span, trace: ref.trace, op: -1, kind: kindRESTServer,
			layer: layerServices, service: service, method: ctx.Request.Method}
		ctx.Context = context.WithValue(ctx.Context, spanKey{}, spanRef{ref.trace, s.id})
		s.start = t.now()
		out, err := next(ctx, body)
		s.end = t.now()
		s.failed = err != nil
		t.add(s)
		return out, err
	})
}

// observe decodes kv replies to count cache hits, and keeps a few replies
// of the workload's dominant message for the codec calibration.
func (t *tracer) observe(layer uint8, service, method string, resp []byte) {
	if layer == layerKV {
		switch method {
		case "Get":
			var r kv.GetResp
			if codec.Unmarshal(resp, &r) == nil {
				t.kvKeys.Add(1)
				if r.Found {
					t.kvHits.Add(1)
				}
			}
		case "MGet":
			var r kv.MGetResp
			if codec.Unmarshal(resp, &r) == nil {
				hits := 0
				for _, f := range r.Found {
					if f {
						hits++
					}
				}
				t.kvKeys.Add(int64(len(r.Found)))
				t.kvHits.Add(int64(hits))
			}
		}
	}
	if service+"/"+method == t.codecMethod && t.codecSeen.Add(1)%16 == 1 {
		t.mu.Lock()
		if len(t.codecSamples) < 32 {
			t.codecSamples = append(t.codecSamples, append([]byte(nil), resp...))
		}
		t.mu.Unlock()
	}
}

// runTraced boots the workload twice with the tracer's hooks installed:
// the first boot runs an open-loop phase with the hooks idle, the second
// one with them recording, each on fresh state like the untraced run's
// segments. It reports the per-layer split of the recorded requests.
func runTraced(w *workload, seed uint64, seconds int) (report, error) {
	t := newTracer(w.codecMethod)
	ctx := context.Background()
	total := time.Duration(seconds) * time.Second
	plainFor := total * 4 / 10

	sys, _, err := setup(w, seed, t.options())
	if err != nil {
		return report{}, err
	}
	runtime.GC()
	plain := runOpen(ctx, sys, w, seed, plainFor, nil)
	plainVerifyErr := sys.verify(ctx)
	sys.close()

	sys, _, err = setup(w, seed, t.options())
	if err != nil {
		return report{}, err
	}
	defer sys.close()
	runtime.GC()
	every := w.traceEvery
	lagMax := sampleCommitLag(sys)
	t.on.Store(true)
	traced := runOpen(ctx, sys, w, seed+1, total-plainFor, func(ctx context.Context, i int) context.Context {
		if i%every != 0 {
			return ctx
		}
		return context.WithValue(ctx, opKey{}, sampledOp{t, i})
	})
	t.on.Store(false)
	commitLag := lagMax()
	verifyErr := sys.verify(ctx)

	printPhase("open-loop-untraced", plain)
	printPhase("open-loop-traced", traced)
	if len(plain.latMs) == 0 || len(traced.latMs) == 0 {
		return report{}, fmt.Errorf("%s: no request completed (first error: %v)", w.name, firstNonNil(plain.firstErr, traced.firstErr))
	}
	correct := reportChecks(plain.checkErr, traced.checkErr, plainVerifyErr, verifyErr)

	m := t.analyse(traced, plain, every)
	m["loadgen.offered_rps"] = metric{float64(plain.attempted) / plain.elapsed.Seconds(), "req/s"}
	m["loadgen.lag_p99_ms"] = metric{quantile(sorted(plain.lagMs), 0.99), "ms"}
	m["error_ratio"] = metric{float64(plain.failed+traced.failed) / float64(plain.attempted+traced.attempted), "ratio"}
	m["codec.ns_per_op"] = metric{t.codecNsPerOp(w), "ns"}
	m["mq.commit_lag_ms_max"] = metric{ms(commitLag), "ms"}
	m["mq.acked_ratio"], m["mq.redelivered"] = metric{0, "ratio"}, metric{0, "count"}
	if b := sys.broker(); b != nil {
		st := b.GroupStats(shopOrderTopic, shopOrderGroup)
		if st.Published > 0 {
			m["mq.acked_ratio"] = metric{float64(st.Acked) / float64(st.Published), "ratio"}
		}
		m["mq.redelivered"] = metric{float64(st.Redelivered), "count"}
	}
	m["trace.spans_dropped"] = metric{float64(t.dropped.Load()), "count"}
	return report{
		Correct:   correct,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// sampleCommitLag polls the order queue's oldest message age every 10ms
// until the returned stop function is called, which reports the maximum.
// Applications without a broker report zero.
func sampleCommitLag(sys system) (stop func() time.Duration) {
	b := sys.broker()
	if b == nil {
		return func() time.Duration { return 0 }
	}
	done := make(chan struct{})
	result := make(chan time.Duration, 1)
	go func() {
		var worst time.Duration
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- worst
				return
			case <-tick.C:
				worst = max(worst, b.GroupStats(shopOrderTopic, shopOrderGroup).OldestAge)
			}
		}
	}()
	return func() time.Duration {
		close(done)
		return <-result
	}
}

// codecNsPerOp times a marshal+unmarshal round of each sampled dominant
// reply in a tight loop, out of band, taking the best of several rounds
// per sample and averaging over samples.
func (t *tracer) codecNsPerOp(w *workload) float64 {
	t.mu.Lock()
	samples := t.codecSamples
	t.mu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	runtime.GC()
	const rounds, iters = 5, 200
	var sum float64
	var buf []byte
	for _, payload := range samples {
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				v := w.codecValue()
				if err := codec.Unmarshal(payload, v); err != nil {
					return 0
				}
				buf, _ = codec.AppendMarshal(buf[:0], v) //nolint:errcheck // v was just decoded
			}
			best = min(best, time.Since(start))
		}
		sum += float64(best.Nanoseconds()) / iters
	}
	return sum / float64(len(samples))
}

// analyse builds the span trees of the sampled operations and reports each
// layer's counts, timings and critical-path share.
func (t *tracer) analyse(traced, plain *phase, every int) map[string]metric {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	kids := make(map[uint64][]*span, len(spans))
	byID := make(map[uint64]*span, len(spans))
	var roots []*span
	for i := range spans {
		s := &spans[i]
		byID[s.id] = s
		if s.kind == kindFront {
			roots = append(roots, s)
		} else {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	for _, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].end > ks[j].end })
	}

	ops := map[int]bool{}
	var cp [numLayers]int64
	var tax int64
	for _, r := range roots {
		ops[r.op] = true
		tax += walkCritical(r, r.end, kids, &cp)
	}
	n := float64(max(1, len(ops)))

	var restOver, restSrv, hops, kvDur, dsDur, publish, wtDur []float64
	var calls, callErrs, rpcBytes, dsReads, dsWrites int
	var selfServices int64
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case kindFront:
			if c := only(kids[s.id]); c != nil {
				if srv := only(kids[c.id]); srv != nil {
					restOver = append(restOver, us(s.dur()-srv.dur()))
				}
			}
		case kindRESTServer:
			restSrv = append(restSrv, us(s.dur()))
			selfServices += s.dur() - covered(s, kids[s.id])
		case kindCall:
			calls++
			if s.failed {
				callErrs++
			}
			if c := only(kids[s.id]); c != nil && !s.oneway {
				hops = append(hops, us(s.dur()-c.dur()-c.tax))
			}
			if layerOf(s.service) == layerMQ && s.method == "Publish" {
				publish = append(publish, us(s.dur()))
			}
		case kindServer:
			rpcBytes += s.bytes
			switch s.layer {
			case layerServices:
				selfServices += s.dur() - covered(s, kids[s.id])
				if strings.HasSuffix(s.service, ".writeTimeline") {
					wtDur = append(wtDur, us(s.dur()))
				}
			case layerKV:
				kvDur = append(kvDur, us(s.dur()))
			case layerDocstore:
				dsDur = append(dsDur, us(s.dur()))
				switch s.method {
				case "Get", "Find", "FindRange":
					dsReads++
				default:
					dsWrites++
				}
			}
		}
	}

	// The traced requests' own latencies: from due time for the overhead
	// ratio, from actual send for the critical-path coverage check.
	var sampledLat, sampledSend []float64
	for i := 0; i < len(traced.opLat); i++ {
		if i%every == 0 && traced.opOK[i] {
			sampledLat = append(sampledLat, traced.opLat[i])
			sampledSend = append(sampledSend, traced.opSend[i])
		}
	}
	var cpSum float64
	m := map[string]metric{}
	for l := 0; l < numLayers; l++ {
		v := us(cp[l]) / n
		cpSum += v
		m["cp."+layerNames[l]+"_us"] = metric{v, "us"}
	}
	m["cp.sum_over_e2e"] = metric{cpSum / (mean(sampledSend) * 1000), "ratio"}
	m["trace.overhead_p50_ratio"] = metric{quantile(sorted(sampledLat), 0.5) / quantile(sorted(plain.latMs), 0.5), "ratio"}
	m["rest.overhead_us_mean"] = metric{mean(restOver), "us"}
	m["rest.server_us_p50"] = metric{quantile(sorted(restSrv), 0.5), "us"}
	m["rpc.calls_per_req"] = metric{float64(calls) / n, "count"}
	m["rpc.bytes_per_req"] = metric{float64(rpcBytes) / n, "B"}
	m["rpc.hop_overhead_us_mean"] = metric{mean(hops), "us"}
	m["rpc.hop_overhead_us_p99"] = metric{quantile(sorted(hops), 0.99), "us"}
	m["rpc.error_ratio"] = metric{ratio(callErrs, calls), "ratio"}
	m["services.self_us_per_req"] = metric{us(selfServices) / n, "us"}
	m["services.writeTimeline_us_p50"] = metric{quantile(sorted(wtDur), 0.5), "us"}
	m["kv.calls_per_req"] = metric{float64(len(kvDur)) / n, "count"}
	m["kv.server_us_mean"] = metric{mean(kvDur), "us"}
	m["kv.hit_ratio"] = metric{ratio(int(t.kvHits.Load()), int(t.kvKeys.Load())), "ratio"}
	m["docstore.reads_per_req"] = metric{float64(dsReads) / n, "count"}
	m["docstore.writes_per_req"] = metric{float64(dsWrites) / n, "count"}
	m["docstore.server_us_mean"] = metric{mean(dsDur), "us"}
	m["docstore.server_us_p99"] = metric{quantile(sorted(dsDur), 0.99), "us"}
	m["mq.publish_us_mean"] = metric{mean(publish), "us"}
	fmt.Printf("# trace sampled_ops=%d spans=%d roots=%d hook_tax_us_per_req=%.3f (tracer work on the critical path, in no layer)\n",
		len(ops), len(spans), len(roots), us(tax)/n)
	return m
}

// walkCritical attributes the critical path of s, up to end, to layers:
// walking back from the end, the latest-finishing child that ends before
// the current point is on the path (recursively); the gaps between such
// children are s's own time, less the tracer's tax that directly follows a
// child. It returns the tax on the path; the attributed total plus the tax
// equals s's clipped span.
func walkCritical(s *span, end int64, kids map[uint64][]*span, cp *[numLayers]int64) (tax int64) {
	cur := min(s.end, end)
	for _, k := range kids[s.id] { // sorted by end, latest first
		if k.start >= cur || k.oneway {
			continue
		}
		kEnd := min(k.end, cur)
		kTax := min(k.tax, cur-kEnd)
		cp[s.layer] += cur - kEnd - kTax
		tax += kTax + walkCritical(k, kEnd, kids, cp)
		cur = max(k.start, s.start)
	}
	cp[s.layer] += max(0, cur-s.start)
	return tax
}

// covered is how much of s's interval its children's intervals cover.
func covered(s *span, ks []*span) int64 {
	iv := make([][2]int64, 0, len(ks))
	for _, k := range ks {
		iv = append(iv, [2]int64{max(k.start, s.start), min(k.end, s.end)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64 = 0, s.start
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		total += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return total
}

// only returns the single child in ks, or nil.
func only(ks []*span) *span {
	if len(ks) != 1 {
		return nil
	}
	return ks[0]
}

func us(ns int64) float64 { return float64(ns) / 1000 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
