// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, driving the public functions of the topology,
// numasim, comm, treematch, placement, kernels, orwl and sched packages
// directly and timing each call from outside, checks the outputs, and prints
// as its last line a JSON object with the metrics listed in BENCHMARK.json:
//
//	perfbench --workload place-dc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced repetitions.
// With --trace 1 it alternates untraced and traced repetitions, reports the
// per-layer metrics, and writes every span and counter of the run to one
// JSON file under .bench_build/traces. With --selftest it instead checks
// that the simulated outputs repeat exactly across repetitions and across
// GOMAXPROCS 1 and 2. Run it from the root of a checkout, where
// BENCHMARK.json names the metrics to report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// instance is one fresh copy of a workload. Each repetition builds its
// inputs anew, so set-up is measured every time and no state carries over.
type instance interface {
	// setup builds the platform and the inputs for the seed.
	setup(r *rep, seed int64) error
	// timed runs the phase whose host time is wall_s.
	timed(r *rep)
	// replay re-runs placement stages one call at a time from outside, so
	// their time can be attributed; traced repetitions only.
	replay(r *rep)
	// check verifies the outputs of the timed phase and records the
	// simulated results and work counts.
	check(r *rep)
}

var workloads = map[string]func() instance{
	"place-dc":     func() instance { return &placeDC{} },
	"lk23-fig1":    func() instance { return &lk23Fig1{} },
	"sched-phase2": func() instance { return &schedPhase2{} },
}

// warmSetups is the number of set-up-only iterations before the first
// repetition. They warm the heap and give setup_s enough samples for a
// median even when a workload fits only two repetitions into the run.
const warmSetups = 15

// minReps is the fewest repetitions a run makes, however long they take;
// a traced run needs one untraced and one traced repetition.
const minReps = 2

// rep is one repetition of a workload.
type rep struct {
	tr            *tracer
	setupS, wallS float64
	cpuS, allocMB float64
	failed        []bool
	problems      []string
	// det holds outputs that must repeat exactly for a seed: simulated
	// results and work counts.
	det map[string]float64
}

func newRep(tr *tracer) *rep { return &rep{tr: tr, det: map[string]float64{}} }

// call runs fn inside a span named after the layer call it wraps.
func (r *rep) call(name, detail string, fn func() error) error {
	id := r.tr.begin(name, detail)
	err := fn()
	r.tr.end(id)
	return err
}

// op records one operation (a placement call, a simulation run or a job)
// and returns its index; a non-nil err marks it failed.
func (r *rep) op(err error) int {
	r.failed = append(r.failed, false)
	i := len(r.failed) - 1
	if err != nil {
		r.fail(i, "%v", err)
	}
	return i
}

// fail marks operation i failed and keeps the reason.
func (r *rep) fail(i int, format string, args ...any) {
	r.failed[i] = true
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *rep) set(name string, v float64) { r.det[name] = v }
func (r *rep) add(name string, v float64) { r.det[name] += v }

func (r *rep) nfailed() int {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return n
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// runRep runs one repetition: set-up, the timed phase, the stage replay
// when traced, and the output checks.
func runRep(w instance, seed int64, tr *tracer) *rep {
	r := newRep(tr)
	// Set-up and the timed phase each start on a collected heap, so the
	// previous repetition's garbage is not charged to them.
	runtime.GC()
	root := tr.begin("rep", "")
	defer tr.end(root)

	cpu := cpuSeconds()
	err := r.call("setup", "", func() error { return w.setup(r, seed) })
	r.setupS = cpuSeconds() - cpu
	if err != nil {
		r.op(fmt.Errorf("setup: %w", err))
		return r
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	cpu = cpuSeconds()
	r.call("timed", "", func() error { w.timed(r); return nil })
	r.wallS, r.cpuS = since(start), cpuSeconds()-cpu
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)

	if tr != nil {
		r.call("replay", "", func() error { w.replay(r); return nil })
	}
	r.call("check", "", func() error { w.check(r); return nil })
	return r
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// manifest is the part of BENCHMARK.json the program reads: the metric
// names and units it must report.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct{ Name, Unit string }

// unit names the unit of a printed value: the one BENCHMARK.json gives it,
// or for a workload-specific output, simulated seconds or a count.
func (m *manifest) unit(name string) string {
	for _, defs := range [][]metricDef{m.EndToEnd, m.PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	if strings.Contains(name, "sim_s") {
		return "sim-sec"
	}
	return "count"
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// run is the outcome of one benchmark run.
type run struct {
	workload  string
	seed      int64
	reps      []*rep
	setups    []float64
	tr        *tracer
	traceIDs  []string // trace id of each traced repetition
	mismatch  []string // outputs that differed between repetitions
	setupErrs int
}

func execute(name string, seed int64, seconds float64, traced bool) *run {
	mk := workloads[name]
	out := &run{workload: name, seed: seed}
	for i := 0; i < warmSetups; i++ {
		runtime.GC()
		cpu := cpuSeconds()
		if err := mk().setup(newRep(nil), seed); err != nil {
			out.setupErrs++
			continue
		}
		out.setups = append(out.setups, cpuSeconds()-cpu)
	}
	if traced {
		out.tr = newTracer()
	}
	start := time.Now()
	for i := 0; len(out.reps) < minReps || since(start) < seconds; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = out.tr
			tr.trace = fmt.Sprintf("%s/seed%d/rep%d", name, seed, i)
			out.traceIDs = append(out.traceIDs, tr.trace)
		}
		r := runRep(mk(), seed, tr)
		out.reps = append(out.reps, r)
		out.setups = append(out.setups, r.setupS)
	}
	if traced {
		out.tr.computeSelf()
	}
	out.mismatch = compareDet(out.reps)
	return out
}

// compareDet lists the outputs that differ from the first repetition's.
func compareDet(reps []*rep) []string {
	var diffs []string
	first := reps[0].det
	for i, r := range reps[1:] {
		for _, k := range keys(first, r.det) {
			if a, b := first[k], r.det[k]; a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				diffs = append(diffs, fmt.Sprintf("%s: rep 0 %v, rep %d %v", k, a, i+1, b))
			}
		}
	}
	return diffs
}

func keys(ms ...map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// walls returns the timed-phase wall and CPU seconds and MiB allocated of
// the traced or untraced repetitions.
func (o *run) walls(traced bool) (wall, cpu, alloc []float64) {
	for _, r := range o.reps {
		if (r.tr != nil) == traced {
			wall = append(wall, r.wallS)
			cpu = append(cpu, r.cpuS)
			alloc = append(alloc, r.allocMB)
		}
	}
	return wall, cpu, alloc
}

// layerSum is the median over traced repetitions of the summed span time of
// the named layer calls.
func (o *run) layerSum(names ...string) float64 {
	var xs []float64
	for _, id := range o.traceIDs {
		stats := o.tr.byName(id)
		total := 0.0
		for _, n := range names {
			if st := stats[n]; st != nil {
				total += st.Total
			}
		}
		xs = append(xs, total)
	}
	return median(xs)
}

// layerDurs pools the durations of every span of the named layer calls over
// all traced repetitions.
func (o *run) layerDurs(names ...string) []float64 {
	var xs []float64
	for _, id := range o.traceIDs {
		stats := o.tr.byName(id)
		for _, n := range names {
			if st := stats[n]; st != nil {
				xs = append(xs, st.Durs...)
			}
		}
	}
	return xs
}

// outputs are the per-layer metrics taken from the outputs a repetition
// records; a workload that does not produce one reports 0.
var outputs = []string{
	"comm.nnz", "orwl.tasks", "numasim.migrations",
	"sched.admitted", "sched.backfills", "sched.preemptions", "sched.defrag_moves", "sched.frag_avg",
	"quality.cut_frac_stencil", "quality.cut_frac_random", "quality.sim_s", "quality.bind_speedup",
	"quality.turnaround_p50_s", "quality.turnaround_p95_s", "quality.util",
}

// placementCalls are the spans of calls that compute a placement; the
// per-call latency metrics pool them.
var placementCalls = []string{"placement.assign", "placement.probe"}

// perLayer computes every per-layer metric the benchmark knows for a traced
// run. Span-derived times exist on every workload; outputs and counts a
// workload does not produce read 0.
func (o *run) perLayer() map[string]float64 {
	m := map[string]float64{}
	for _, k := range outputs {
		m[k] = o.reps[0].det[k]
	}
	m["numasim.platform_s"] = o.layerSum("numasim.platform")
	m["comm.gen_s"] = o.layerSum("comm.gen", "orwl.commmatrix")
	m["placement.assign_s"] = o.layerSum(placementCalls...)
	durs := o.layerDurs(placementCalls...)
	m["placement.call_p50_s"] = percentile(durs, 0.50)
	m["placement.call_p95_s"] = percentile(durs, 0.95)
	m["placement.calls"] = float64(len(durs)) / float64(len(o.traceIDs))
	m["treematch.map_calls"] = float64(len(o.layerDurs("treematch.map"))) / float64(len(o.traceIDs))
	var uncovered []float64
	for _, id := range o.traceIDs {
		if st := o.tr.byName(id)["timed"]; st != nil {
			uncovered = append(uncovered, st.Self)
		}
	}
	m["trace.uncovered_s"] = median(uncovered)
	tw, _, _ := o.walls(true)
	uw, _, _ := o.walls(false)
	m["trace.overhead_s"] = median(tw) - median(uw)
	m["peak_rss_mb"] = peakRSSMB()
	return m
}

// cpuSeconds is the user and system CPU time the process has used. Unlike
// wall time it does not grow while the host runs other work.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB reads the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func (o *run) counts() (attempted, failed int) {
	for _, r := range o.reps {
		attempted += len(r.failed)
		failed += r.nfailed()
	}
	attempted += o.setupErrs
	failed += o.setupErrs
	if len(o.mismatch) > 0 {
		failed++
	}
	return attempted, failed
}

// report builds the result line and prints the human-readable summary
// before it.
func (o *run) report(man *manifest, traced bool) (result, error) {
	attempted, failed := o.counts()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	wall, cpu, alloc := o.walls(false)
	// wall_s is printed here and reported with the per-layer metrics, not
	// gated: on a shared host, time the host gives to other work spreads it
	// wider than any bound BENCHMARK.json may set.
	e2e := map[string]float64{
		"setup_s":  median(o.setups),
		"wall_s":   median(wall),
		"cpu_s":    median(cpu),
		"alloc_mb": median(alloc),
	}
	fmt.Printf("perfbench %s seed=%d reps=%d traced_reps=%d gomaxprocs=%d\n",
		o.workload, o.seed, len(o.reps), len(o.traceIDs), runtime.GOMAXPROCS(0))
	for _, k := range keys(e2e) {
		fmt.Printf("  %-28s %12.6g %s\n", k, e2e[k], man.unit(k))
	}
	fmt.Printf("  %-28s %.4g s\n", "wall_s of each repetition", wall)
	fmt.Printf("  %-28s %.4g s\n", "cpu_s of each repetition", cpu)
	fmt.Printf("  %-28s %12.6g ratio (%d of %d operations failed)\n", "error_rate",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, k := range keys(o.reps[0].det) {
		fmt.Printf("  %-28s %12.6g %s\n", k, o.reps[0].det[k], man.unit(k))
	}
	for _, r := range o.reps {
		for _, p := range r.problems {
			fmt.Printf("  FAIL %s\n", p)
		}
	}
	for _, d := range o.mismatch {
		fmt.Printf("  NOT DETERMINISTIC %s\n", d)
	}

	want, have := man.EndToEnd, e2e
	if traced {
		want, have = man.PerLayer, o.perLayer()
		have["wall_s"] = e2e["wall_s"]
		if err := o.printLayers(have); err != nil {
			return res, err
		}
	}
	for _, w := range want {
		v, ok := have[w.Name]
		if !ok {
			return res, fmt.Errorf("metric %q in BENCHMARK.json is not measured by the benchmark", w.Name)
		}
		res.Metrics[w.Name] = metric{Value: v, Unit: w.Unit}
	}
	return res, nil
}

// printLayers prints, per span name, the median over traced repetitions of
// call count, total and self time, and writes the trace file.
func (o *run) printLayers(perLayer map[string]float64) error {
	f := &traceFile{
		Workload: o.workload, Seed: o.seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Layers:   map[string]map[string]*layerStat{},
		Counters: o.reps[0].det,
		PerLayer: perLayer,
		Spans:    o.tr.spans,
	}
	names := map[string]bool{}
	for _, id := range o.traceIDs {
		f.Layers[id] = o.tr.byName(id)
		for n := range f.Layers[id] {
			names[n] = true
		}
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Printf("  %-28s %8s %12s %12s %12s %12s\n", "layer call (median/rep)", "calls", "total_s", "self_s", "p50_s", "p95_s")
	for _, n := range sorted {
		var calls, total, self []float64
		for _, id := range o.traceIDs {
			st := f.Layers[id][n]
			if st == nil {
				st = &layerStat{}
			}
			calls = append(calls, float64(st.Calls))
			total = append(total, st.Total)
			self = append(self, st.Self)
		}
		durs := o.layerDurs(n)
		fmt.Printf("  %-28s %8.0f %12.6f %12.6f %12.6f %12.6f\n", n, median(calls), median(total), median(self),
			percentile(durs, 0.5), percentile(durs, 0.95))
	}
	path, err := f.write(".bench_build/traces")
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("  trace written to %s\n", path)
	return nil
}

// selftest checks that the simulated outputs and work counts of the
// workload repeat exactly over two repetitions at GOMAXPROCS 2 and one at
// GOMAXPROCS 1.
func selftest(name string, seed int64) error {
	var reps []*rep
	for _, procs := range []int{2, 2, 1} {
		runtime.GOMAXPROCS(procs)
		r := runRep(workloads[name](), seed, nil)
		if n := r.nfailed(); n > 0 {
			return fmt.Errorf("GOMAXPROCS=%d: %d operations failed: %s", procs, n, strings.Join(r.problems, "; "))
		}
		reps = append(reps, r)
	}
	for _, k := range keys(reps[0].det) {
		fmt.Printf("  %-28s %12.6g\n", k, reps[0].det[k])
	}
	if diffs := compareDet(reps); len(diffs) > 0 {
		return errors.New("outputs differ: " + strings.Join(diffs, "; "))
	}
	fmt.Printf("selftest %s seed=%d: outputs identical over 2 repetitions at GOMAXPROCS=2 and 1 at GOMAXPROCS=1\n", name, seed)
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: place-dc, lk23-fig1 or sched-phase2")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long to keep starting repetitions")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	self := flag.Bool("selftest", false, "check determinism instead of measuring")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *self); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace int, self bool) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if self {
		return selftest(workload, seed)
	}
	// With a second P, Go's idle-time GC workers and spinning threads burn
	// CPU in proportion to how idle the host is, so cpu_s would follow the
	// neighbours' load. One P makes CPU time a measure of the work done.
	runtime.GOMAXPROCS(1)
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	o := execute(workload, seed, seconds, trace == 1)
	res, err := o.report(man, trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
