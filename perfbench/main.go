// Command perfbench is the suite's benchmark: it boots one application on
// the live in-process stack, seeds its state from a seed, warms it up, and
// drives the REST front door with an open-loop phase at a fixed offered
// rate followed by a closed-loop phase with one client per CPU. It checks
// the replies and the application's state, and prints one JSON object as
// its last line of output.
//
// Usage:
//
//	perfbench --workload social-read --seed 1 --seconds 48 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload with span-recording hooks installed and reports the
// per-layer split instead. Traffic crosses the in-memory transport, never
// a real network link. See NOTES.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), " | "))
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 48, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 = traced run reporting the per-layer split")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s transport=in-memory (no real network link) workload=%s seed=%d seconds=%d trace=%d offered_rps=%g slo_ms=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.name, *seed, *seconds, *traced,
		w.rate, float64(w.slo.Microseconds())/1000)

	var rep report
	var err error
	if *traced == 1 {
		rep, err = runTraced(w, *seed, *seconds)
	} else {
		rep, err = runPlain(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
