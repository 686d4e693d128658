// Command perfbench is the repository benchmark. It generates seeded
// macro-grid layouts, drives the router through its public entry points
// (genroute.Engine, groutd's HTTP API via internal/serve, and the internal
// layer packages), times those calls from outside, checks every result with
// code independent of the router, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload chip64 --seed 1 --seconds 20 --trace 0
//
// Workloads (see perfbench/README.md for why each exists):
//
//	chip64       cold batch job: decode, NewEngine, RouteNegotiated on a 64×64 grid at pitch 4
//	congest16    negotiated rip-up on congested 16×16 grids at pitch 8
//	eco-serve32  groutd with journaled ECO writes and concurrent route reads on a 32×32 grid
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run records spans around every layer call and reports the
// per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// A run repeats the workload's set-up at least minSetups times and, while
// the repetitions have taken less than setupBudget, up to maxSetups times;
// setup_s is their median. congest16's set-up of some 65 ms so gets dozens
// of samples, chip64's and eco-serve32's of most of a second get five.
const (
	minSetups   = 5
	maxSetups   = 60
	setupBudget = 3 * time.Second
)

// moreSetups reports whether a run that has done n set-ups taking spent in
// total does another.
func moreSetups(n int, spent time.Duration) bool {
	return n < minSetups || (n < maxSetups && spent < setupBudget)
}

// metricDef is one metric of BENCHMARK.json, the only record of the
// metrics' names, units, directions and bounds.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadMetrics reads the end-to-end metrics (every untraced run reports
// them, for every workload) and the per-layer metrics (every traced run
// reports them) from the BENCHMARK.json of the current directory.
//
// A "write" is the workload's unit of route-changing work as its caller
// sees it: one RouteNegotiated call for chip64 and congest16 (whose write
// latencies are taken per negotiation pass from the Engine's progress
// stream), and one /eco request for eco-serve32.
func loadMetrics() (endToEnd, perLayer []metricDef, err error) {
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &b)
	}
	if err == nil && (len(b.EndToEnd) == 0 || len(b.PerLayer) == 0) {
		err = fmt.Errorf("BENCHMARK.json lists no end-to-end or no per-layer metrics")
	}
	return b.EndToEnd, b.PerLayer, err
}

// congestSeeds is congest16's default layout set. Seed 10 converges (in
// pass 5) and is the control; seeds 11–15 stop at overflow 1–5 after the
// 8-pass budget and keep the negotiation tail visible.
var congestSeeds = []int64{10, 11, 12, 13, 14, 15}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	workers  int
	scratch  string // per-run scratch directory, removed at exit
	traces   string // span dumps

	endToEnd, perLayer []metricDef
	metrics            map[string]float64
	attempted, failed  int
	detail             map[string]any
	exact              map[string]int
	rows               []seedRow
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) exactAdd(name string, v int) { r.exact[name] += v }

func (r *run) note(what string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	fmt.Printf("FAIL %s: %v\n", what, err)
}

// op counts one attempted operation and reports whether it succeeded.
func (r *run) op(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.note(what, err)
		return false
	}
	return true
}

// check counts one correctness check.
func (r *run) check(what string, err error) {
	if r.op("check "+what, err) {
		fmt.Printf("check %s: ok\n", what)
	}
}

func main() {
	workload := flag.String("workload", "", "chip64, congest16 or eco-serve32")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()

	r := &run{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(), metrics: map[string]float64{}, detail: map[string]any{}, exact: map[string]int{}}
	var err error
	if r.endToEnd, r.perLayer, err = loadMetrics(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading the metric list:", err)
		os.Exit(2)
	}
	r.scratch = filepath.Join(*out, "perfbench-run", fmt.Sprintf("%s-%d-%d", r.workload, r.seed, os.Getpid()))
	r.traces = filepath.Join(*out, "perfbench-traces")
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	// The congest16 layouts are fixed; the run seed only decides the order
	// they are negotiated in (see README.md).
	seeds := append([]int64(nil), congestSeeds...)
	rand.New(rand.NewSource(*seed)).Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })

	traced := *trace == 1
	var spec tracedSpec
	var in []input
	switch r.workload {
	case "chip64":
		in, err = chipInput(64, r.seed)
		spec = tracedSpec{sch: pitch4, scale: true}
	case "congest16":
		in, err = makeInputs(16, seeds)
		spec = tracedSpec{sch: macroGrid16}
	case "eco-serve32":
		// chip64's layout seed at 32×32, with every control net; the run
		// seed decides the writes and the reads (see README.md).
		in, err = makeInputs(32, []int64{chipSeed})
		spec = tracedSpec{sch: pitch4, moveEvery: ecoMoveEvery, serve: true}
	default:
		os.RemoveAll(r.scratch)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want chip64, congest16 or eco-serve32)\n", r.workload)
		os.Exit(2)
	}
	switch {
	case !r.op("generate layouts", err):
	case traced:
		r.traced(in, spec)
	case r.workload == "eco-serve32":
		r.runECOServe(in[0])
	default:
		r.runBatch(in, spec.sch)
	}
	r.op("remove scratch directory", os.RemoveAll(r.scratch))
	os.Exit(r.report(traced))
}

// report prints the human-readable lines, the detail line and, last, the
// JSON result; it returns the exit code.
func (r *run) report(traced bool) int {
	defs := r.endToEnd
	if traced {
		defs = r.perLayer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && r.failed == 0 {
			r.failed++
			fmt.Printf("FAIL metric %s was not measured\n", d.Name)
		}
		res.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Printf("metric %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	res.Failed = r.failed
	res.Correct = r.failed == 0
	for _, row := range r.rows {
		fmt.Printf("seed %3d: pass1_overflow %3d  final_overflow %3d  passes %d  rerouted %4d  negotiate %9.1f ms  fingerprint %s\n",
			row.Seed, row.Pass1Overflow, row.FinalOverflow, row.Passes, row.Rerouted, row.NegotiateMS, row.Fingerprint)
	}
	r.detail["workload"], r.detail["seed"], r.detail["trace"] = r.workload, r.seed, traced
	r.detail["exact"] = r.exact
	r.detail["failed_frac"] = float64(r.failed) / float64(res.Attempted)
	if len(r.rows) > 0 {
		r.detail["seeds"] = r.rows
	}
	if !traced {
		r.flagFingerprint()
	}
	d, _ := json.Marshal(r.detail)
	fmt.Printf("detail %s\n", d)
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// flagFingerprint compares the run's route fingerprint with the one
// recorded in perfbench/baseline.json for the same workload and seed, and
// prints a notice when routes changed. A change is not a failure: a later
// commit may change routes on purpose, and must then say so.
func (r *run) flagFingerprint() {
	fp, ok := r.detail["fingerprint"].(string)
	if !ok {
		return
	}
	var base struct {
		Fingerprints map[string]map[string]string `json:"fingerprints"`
	}
	b, err := os.ReadFile(filepath.Join("perfbench", "baseline.json"))
	if err != nil || json.Unmarshal(b, &base) != nil {
		return
	}
	// chip64 and congest16 route the same layouts for every seed ("*").
	fps := base.Fingerprints[r.workload]
	want, ok := fps[strconv.FormatInt(r.seed, 10)]
	if !ok {
		want, ok = fps["*"]
	}
	switch {
	case !ok:
		fmt.Printf("fingerprint %s (no recorded fingerprint for %s seed %d)\n", fp, r.workload, r.seed)
	case want != fp:
		fmt.Printf("FINGERPRINT CHANGED: %s seed %d routes %s, recorded %s\n", r.workload, r.seed, fp, want)
	default:
		fmt.Printf("fingerprint %s matches the recorded one\n", fp)
	}
}
