package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"dsb/internal/core"
	"dsb/internal/loadgen"
	"dsb/internal/mq"
)

// op is one front-door operation. It issues its calls, checks the replies,
// and returns a *checkError when a reply is wrong.
type op func(ctx context.Context) error

// system is one booted and seeded application under test.
type system interface {
	// next draws one operation from r; safe for concurrent use with
	// distinct sources.
	next(r *rand.Rand) op
	// warm is the deterministic warm-up pass run before any timing.
	warm(ctx context.Context) error
	// verify checks the application's state once load has stopped.
	verify(ctx context.Context) error
	// broker is the message-broker tier, or nil when the app has none.
	broker() *mq.Cluster
	close()
}

// workload is one traffic mix against one application.
type workload struct {
	name string
	// rate is the fixed open-loop offered rate in req/s: 30-55% of the
	// closed-loop capacity measured when the workload was defined.
	rate float64
	// slo is the latency limit slo_goodput_ratio counts against.
	slo  time.Duration
	boot func(opts core.Options, seed uint64) (system, error)
	// codecMethod ("service/Method") names the RPC whose reply is the
	// workload's dominant message; codecValue returns a value to decode it
	// into.
	codecMethod string
	codecValue  func() any
	// traceEvery samples one operation in this many during the traced
	// phase, keeping the span buffer within maxSpans.
	traceEvery int
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

const (
	// setups is how many times a plain run boots, seeds and warms the
	// application, one segment per boot; setup_s is their median.
	setups = 3
	// warmTries bounds the attempts at the deterministic warm-up pass. The
	// program degrades gracefully by default: a timeline read whose post
	// hydration misses a 40 ms budget serves a stale copy, and fails when
	// there is none yet, as on a first read while the machine is slow.
	// warmFor is the closed-loop warm-up after the deterministic pass.
	warmFor = 500 * time.Millisecond
	// callTimeout bounds one front-door operation; a timeout is a failure.
	callTimeout = 2 * time.Second
	warmTries   = 3
)

// checkError marks a wrong reply or state, as opposed to a failed call.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// setup boots, seeds and warms one instance of the workload's application.
func setup(w *workload, seed uint64, opts core.Options) (system, time.Duration, error) {
	start := time.Now()
	sys, err := w.boot(opts, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: boot: %w", w.name, err)
	}
	ctx := context.Background()
	err = sys.warm(ctx)
	for try := 1; err != nil && try < warmTries; try++ {
		err = sys.warm(ctx)
	}
	if err != nil {
		sys.close()
		return nil, 0, fmt.Errorf("%s: warm-up pass: %w", w.name, err)
	}
	if ph := runClosed(ctx, sys, seed^0x5eed, warmFor); ph.checkErr != nil {
		sys.close()
		return nil, 0, fmt.Errorf("%s: warm-up load: %w", w.name, ph.checkErr)
	}
	return sys, time.Since(start), nil
}

// phase is the outcome of one load phase.
type phase struct {
	attempted, completed, failed int
	latMs                        []float64 // completed ops, from due time (open loop)
	lagMs                        []float64 // send time minus due time
	// Per operation index (open loop): latency from due time and from
	// actual send, and whether it succeeded.
	opLat, opSend []float64
	opOK          []bool
	windowRates   []float64 // closed loop: completions/s in each window
	elapsed       time.Duration
	cpu           time.Duration
	allocBytes    uint64
	checkErr      error // first failed check
	firstErr      error // first failed call
}

func (p *phase) record(err error) {
	if err == nil {
		p.completed++
		return
	}
	p.failed++
	var ce *checkError
	if errors.As(err, &ce) {
		if p.checkErr == nil {
			p.checkErr = err
		}
	} else if p.firstErr == nil {
		p.firstErr = err
	}
}

// runOpen drives ops on a pre-generated Poisson schedule. A send that falls
// behind its due time goes out at once (catching up, never thinning the
// load), and every latency is timed from the due time, so a stall in the
// generator or the system shows in every request it delays. wrap, when
// set, decorates each operation's context (the traced run tags ops here).
func runOpen(ctx context.Context, sys system, w *workload, seed uint64, dur time.Duration, wrap func(context.Context, int) context.Context) *phase {
	at := loadgen.Schedule(loadgen.NewPoisson(w.rate, seed), dur)
	r := rand.New(rand.NewPCG(seed, 0x09E7))
	ops := make([]op, len(at))
	for i := range ops {
		ops[i] = sys.next(r)
	}
	type outcome struct {
		due, sent, done time.Duration
		err             error
	}
	out := make([]outcome, len(ops))
	var wg sync.WaitGroup
	cpu0, alloc0 := usage()
	start := time.Now()
	for i := range ops {
		if d := at[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].due, out[i].sent = at[i], time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx := ctx
			if wrap != nil {
				cctx = wrap(ctx, i)
			}
			cctx, cancel := context.WithTimeout(cctx, callTimeout)
			out[i].err = ops[i](cctx)
			cancel()
			out[i].done = time.Since(start)
		}(i)
	}
	wg.Wait()
	p := &phase{elapsed: time.Since(start)}
	cpu1, alloc1 := usage()
	p.cpu, p.allocBytes = cpu1-cpu0, alloc1-alloc0
	p.opLat, p.opSend, p.opOK = make([]float64, len(out)), make([]float64, len(out)), make([]bool, len(out))
	for i, o := range out {
		p.attempted++
		p.record(o.err)
		p.lagMs = append(p.lagMs, ms(o.sent-o.due))
		p.opLat[i], p.opSend[i], p.opOK[i] = ms(o.done-o.due), ms(o.done-o.sent), o.err == nil
		if o.err != nil {
			continue
		}
		p.latMs = append(p.latMs, p.opLat[i])
	}
	return p
}

// joinPhases concatenates phases in order.
func joinPhases(ps []*phase) *phase {
	j := &phase{}
	for _, p := range ps {
		j.attempted += p.attempted
		j.completed += p.completed
		j.failed += p.failed
		j.latMs = append(j.latMs, p.latMs...)
		j.lagMs = append(j.lagMs, p.lagMs...)
		j.opLat = append(j.opLat, p.opLat...)
		j.opSend = append(j.opSend, p.opSend...)
		j.opOK = append(j.opOK, p.opOK...)
		j.windowRates = append(j.windowRates, p.windowRates...)
		j.elapsed += p.elapsed
		j.cpu += p.cpu
		j.allocBytes += p.allocBytes
		j.checkErr = firstNonNil(j.checkErr, p.checkErr)
		j.firstErr = firstNonNil(j.firstErr, p.firstErr)
	}
	return j
}

// A phase's figures are computed over consecutive windows and the median
// over windows is reported, so windows disturbed by bursts of outside load
// (the machine's speed moves by ±15% within a second) do not move it. Each
// window holds at least minWindowSamples samples, which keeps ten beyond a
// window's p99; a phase with fewer samples uses fewer, longer windows, and
// one with too few for three windows is one window.
const (
	maxWindows       = 20
	minWindowSamples = 1000
)

func windowCount(samples int) int {
	if k := min(maxWindows, samples/minWindowSamples); k >= 3 {
		return k
	}
	return 1
}

// windowed returns the median over windows of the p50 and p99 latency of
// completed operations and of the share of operations that completed
// within slo.
func (p *phase) windowed(slo time.Duration) (p50, p99, goodput float64) {
	var p50s, p99s, goods []float64
	n := len(p.opLat)
	k := windowCount(n)
	for w := 0; w < k; w++ {
		var lat []float64
		good := 0
		lo, hi := w*n/k, (w+1)*n/k
		for i := lo; i < hi; i++ {
			if !p.opOK[i] {
				continue
			}
			lat = append(lat, p.opLat[i])
			if p.opLat[i] <= ms(slo) {
				good++
			}
		}
		sort.Float64s(lat)
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
		goods = append(goods, float64(good)/float64(max(1, hi-lo)))
	}
	fmt.Printf("# open-loop windows=%d p99_ms min=%.3f median=%.3f max=%.3f\n", k, slices.Min(p99s), median(p99s), slices.Max(p99s))
	return median(p50s), median(p99s), median(goods)
}

// runClosed runs one client per CPU, each sending its next operation as
// soon as the previous one completes, and counts the completions per
// second in each window.
func runClosed(ctx context.Context, sys system, seed uint64, dur time.Duration) *phase {
	clients := runtime.GOMAXPROCS(0)
	results := make([]phase, clients)
	doneAt := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, uint64(c)))
			p := &results[c]
			for time.Now().Before(deadline) {
				o := sys.next(r)
				cctx, cancel := context.WithTimeout(ctx, callTimeout)
				err := o(cctx)
				cancel()
				p.attempted++
				p.record(err)
				if err == nil {
					doneAt[c] = append(doneAt[c], time.Since(start))
				}
			}
		}(c)
	}
	wg.Wait()
	total := &phase{elapsed: time.Since(start)}
	var done []time.Duration
	for c, p := range results {
		total.attempted += p.attempted
		total.completed += p.completed
		total.failed += p.failed
		if total.checkErr == nil {
			total.checkErr = p.checkErr
		}
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
		done = append(done, doneAt[c]...)
	}
	k := windowCount(len(done))
	perWindow := make([]float64, k)
	for _, t := range done {
		perWindow[min(k-1, int(t*time.Duration(k)/dur))]++
	}
	for i := range perWindow {
		perWindow[i] /= (dur / time.Duration(k)).Seconds()
	}
	total.windowRates = perWindow
	return total
}

// runPlain is the untraced run: it reports every end-to-end metric. It
// boots, seeds and warms the application setups times, and each boot
// serves one segment on fresh state: an open loop, then a closed loop. The
// segments' samples are pooled. Writes make the state grow, and the cost
// of a request with it (a timeline write costs in proportion to the
// timeline's length), so short segments on fresh state keep the load
// alike from the first measured request to the last; and spreading each
// phase over the whole run keeps a slow spell of the machine from setting
// a whole phase's figure.
func runPlain(w *workload, seed uint64, seconds int) (report, error) {
	total := time.Duration(seconds) * time.Second
	openFor := total * 3 / 4
	ctx := context.Background()
	setupS := make([]float64, 0, setups)
	var opens, closeds []*phase
	var verifyErrs []error
	var heap float64
	for i := 0; i < setups; i++ {
		sys, d, err := setup(w, seed, core.Options{DisableTracing: true})
		if err != nil {
			return report{}, err
		}
		setupS = append(setupS, d.Seconds())
		segSeed := seed + uint64(i)<<32
		runtime.GC()
		opens = append(opens, runOpen(ctx, sys, w, segSeed, openFor/setups, nil))
		if i == setups-1 {
			heap = heapInuseAfterGC()
		}
		closeds = append(closeds, runClosed(ctx, sys, segSeed, (total-openFor)/setups))
		verifyErrs = append(verifyErrs, sys.verify(ctx))
		sys.close()
	}
	open, closed := joinPhases(opens), joinPhases(closeds)

	printPhase(fmt.Sprintf("open-loop(%d segments)", len(opens)), open)
	printPhase(fmt.Sprintf("closed-loop(%d segments)", len(closeds)), closed)
	if len(open.latMs) == 0 || closed.completed == 0 {
		return report{}, fmt.Errorf("%s: no request completed (first error: %v)", w.name, firstNonNil(open.firstErr, closed.firstErr))
	}
	correct := reportChecks(append([]error{open.checkErr, closed.checkErr}, verifyErrs...)...)

	p50, p99, goodput := open.windowed(w.slo)
	m := map[string]metric{
		"setup_s":           {median(setupS), "s"},
		"latency_p50_ms":    {p50, "ms"},
		"latency_p99_ms":    {p99, "ms"},
		"slo_goodput_ratio": {goodput, "ratio"},
		"capacity_rps":      {median(closed.windowRates), "req/s"},
		"cpu_ms_per_req":    {ms(open.cpu) / float64(open.completed), "ms"},
		"alloc_kb_per_req":  {float64(open.allocBytes) / 1024 / float64(open.completed), "KiB"},
		"heap_inuse_mb":     {heap, "MiB"},
	}
	return report{
		Correct:   correct,
		Attempted: open.attempted + closed.attempted,
		Failed:    open.failed + closed.failed,
		Metrics:   m,
	}, nil
}

// reportChecks prints every failed check and reports whether all passed.
func reportChecks(errs ...error) bool {
	ok := true
	for _, err := range errs {
		if err != nil {
			fmt.Printf("# FAILED %v\n", err)
			ok = false
		}
	}
	return ok
}

func printPhase(name string, p *phase) {
	fmt.Printf("# phase %s attempted=%d completed=%d failed=%d latency_samples=%d elapsed_s=%.3f",
		name, p.attempted, p.completed, p.failed, len(p.latMs), p.elapsed.Seconds())
	if p.lagMs != nil {
		fmt.Printf(" sent_rps=%.1f lag_p99_ms=%.3f", float64(p.attempted)/p.elapsed.Seconds(), quantile(sorted(p.lagMs), 0.99))
	}
	if p.firstErr != nil {
		fmt.Printf(" first_error=%q", p.firstErr.Error())
	}
	fmt.Println()
}

// usage returns the process's user+system CPU time and cumulative heap
// allocation.
func usage() (time.Duration, uint64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return cpu, m.TotalAlloc
}

// heapInuseAfterGC reports the live heap in MiB after a forced collection.
func heapInuseAfterGC() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func firstNonNil(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
