// Command perfbench is the repository's benchmark. It drives one named
// workload through the simulator's public layers (sim, stack, fs, kv,
// workload), checks correctness, and prints the metrics of two clocks:
// the simulated storage system's and the simulator's own host cost.
//
//	bash perfbench/run.sh --workload ordered-write --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is the end-to-end
// result; with --trace 1 a second, traced rig replays the same seeded
// run with the stage tracer, the benchmark's spans and a CPU profile and
// the last line holds the per-layer metrics. The exit code is non-zero
// when any correctness check fails. See RATIONALE.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// The engine runs one simulated process at a time, handing control
// between goroutines over channels. With one P each hand-off stays on one
// thread; with more, every resume wakes another thread, which makes the
// host clock depend on what else the machine runs.
const gomaxprocs = 1

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "host seconds to measure")
	traced := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fl.String("out", ".bench_build/results", "directory for the detailed results")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --trace 0|1, --seconds > 0\n", workloadNames())
		return 2
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *traced))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	opts := runOpts{seed: *seed}
	deadline := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traced == 1 {
		rep = tracedRun(w, opts, deadline, dir)
	} else {
		rep = untracedRun(w, opts, deadline)
	}
	if err := rep.write(dir, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		for _, m := range rep.Failures {
			fmt.Fprintf(stderr, "perfbench: FAIL %s\n", m)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

// report is one run's full record: the result line's fields plus what
// is needed to read it (environment, windows, load points).
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Env      env                `json:"env"`
	Windows  map[string]float64 `json:"windows_ms"`
	Points   []point            `json:"points"`
	LimitUS  float64            `json:"slo_p99_limit_us"`
	SetupS   []float64          `json:"setup_s_runs"`
	// UnscaledNSPerOp is host_ns_per_op before scaling to the reference
	// speed.
	UnscaledNSPerOp float64            `json:"host_ns_per_op_unscaled,omitempty"`
	Correct         bool               `json:"correct"`
	Attempted       int64              `json:"attempted"`
	Failed          int64              `json:"failed"`
	Failures        []string           `json:"failures"`
	Metrics         map[string]float64 `json:"metrics"`
	defs            []metricDef
}

type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func hostEnv() env {
	return env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func newReport(w workloadSpec, o runOpts, oc *outcome) *report {
	ms := func(d float64) float64 { return d / 1e6 }
	return &report{
		Workload: w.name, Seed: o.seed, Traced: o.traced, Env: hostEnv(),
		Windows: map[string]float64{
			"warmup":      ms(float64(oc.warmup)),
			"main_span":   ms(float64(oc.end - oc.start)),
			"host_window": ms(float64(oc.hostWin)),
		},
		Points: oc.points, LimitUS: oc.limitUS, Metrics: map[string]float64{},
	}
}

// finish fills the verdict from the rigs' op and failure counts.
func (r *report) finish(extra failures, rigs ...*base) {
	r.Failed, r.Failures = extra.n, slices.Clone(extra.msgs)
	for _, b := range rigs {
		r.Attempted += b.attempted
		r.Failed += b.fail.n
		r.Failures = append(r.Failures, b.fail.msgs...)
	}
	r.Attempted = max(r.Attempted, 1)
	r.Correct = r.Failed == 0
}

// untracedRun measures the end-to-end metrics: set-up repeated
// setupReps times, the deterministic load points, then the main load
// until the host deadline.
func untracedRun(w workloadSpec, o runOpts, seconds time.Duration) *report {
	var setups []float64
	var s scenario
	for i := 0; i < w.setupReps; i++ {
		if s != nil {
			s.rig().shutdown()
			s = nil
		}
		runtime.GC()
		cal := calibrate()
		s = w.build(o)
		cal = (cal + calibrate()) / 2
		setups = append(setups, scaled(s.rig().setup.total, cal).Seconds())
	}
	b := s.rig()
	heap := liveHeapMB()
	t0 := time.Now()
	var hw hostWindows
	oc := s.run(&hw)
	heap = max(heap, liveHeapMB())
	s.extend(t0.Add(seconds), &hw)
	b.shutdown()

	r := newReport(w, o, oc)
	r.SetupS = setups
	r.defs = endToEnd
	for k, v := range oc.simMetrics() {
		r.Metrics[k] = v
	}
	tot := hw.totals()
	r.Metrics["host_ns_per_op"] = hw.nsPerOp(true)
	r.UnscaledNSPerOp = hw.nsPerOp(false)
	r.Metrics["host_allocs_per_op"] = ratio(float64(tot.mallocs), float64(tot.ops))
	r.Metrics["host_bytes_per_op"] = ratio(float64(tot.bytes), float64(tot.ops))
	r.Metrics["heap_peak_mb"] = heap
	r.Metrics["setup_s"] = median(setups)
	r.Windows["host_windows"] = float64(len(hw.ws))
	r.finish(failures{}, b)
	return r
}

// tracedRun measures the per-layer metrics. The untraced rig runs the
// deterministic points, then the main load under a CPU profile; a second
// rig with the stage tracer and the benchmark's spans replays the same
// points, and its simulated results must equal the untraced ones.
func tracedRun(w workloadSpec, o runOpts, seconds time.Duration, dir string) *report {
	var extra failures
	t0 := time.Now()
	cal := calibrate()
	s := w.build(o)
	cal = (cal + calibrate()) / 2
	b := s.rig()
	var hw hostWindows
	oc := s.run(&hw)
	runHost := b.runHost
	untracedHost := hw.totals().scaled

	var phw hostWindows
	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err == nil {
		err = pprof.StartCPUProfile(prof)
	}
	if err != nil {
		extra.add(1, "cpu profile: %v", err)
	}
	// The profiled span lasts to the run's deadline, and at least half
	// of it.
	s.extend(maxTime(t0.Add(seconds), time.Now().Add(seconds/2)), &phw)
	pprof.StopCPUProfile()
	if prof != nil {
		if err := prof.Close(); err != nil {
			extra.add(1, "cpu profile: %v", err)
		}
	}
	b.shutdown()

	to := o
	to.traced = true
	st := w.build(to)
	tb := st.rig()
	var thw hostWindows
	toc := st.run(&thw)
	tb.shutdown()
	checkReplay(oc, toc, &extra)
	tr := tb.c.Tracer()
	ts := tr.Stats()
	if ts.Finished+ts.Dropped+int64(ts.Open) != ts.Sampled {
		extra.add(1, "tracer books: finished %d + dropped %d + open %d != sampled %d",
			ts.Finished, ts.Dropped, ts.Open, ts.Sampled)
	}

	r := newReport(w, to, toc)
	r.defs = perLayer
	m := r.Metrics
	m["setup.cluster_s"] = scaled(b.setup.cluster, cal).Seconds()
	m["setup.mount_s"] = scaled(b.setup.mount, cal).Seconds()
	m["setup.preload_s"] = scaled(b.setup.preload, cal).Seconds()
	m["setup.zipf_s"] = scaled(b.setup.zipf, cal).Seconds()
	m["sim.run_host_s"] = runHost.Seconds()
	ptot := phw.totals()
	m["host.gc_cycles_per_kop"] = ratio(1e3*float64(ptot.gcs), float64(ptot.ops))
	for _, c := range cpuCategories {
		m["host.cpu_share."+c] = 0
	}
	if shares, err := cpuShares(filepath.Join(dir, "cpu.pprof")); err != nil {
		extra.add(1, "cpu profile: %v", err)
	} else {
		for c, v := range shares {
			m["host.cpu_share."+c] = v
		}
	}
	ops := float64(toc.points[toc.main].Ops)
	counterMetrics(toc.delta, ops, toc.userBlocks, m)
	q := func(name, span string) {
		m[name+".p50"] = toc.spans[span].quantileUS(0.50)
		m[name+".p99"] = toc.spans[span].quantileUS(0.99)
	}
	q("stack.submit_us", "stack.submit")
	q("stack.wait_us", "stack.wait")
	q("kv.get_us", "kv.get")
	q("kv.put_us", "kv.put")
	recs := tr.Retained()
	traceMetrics(recs, toc.start, toc.end, m)
	m["trace.overhead_pct"] = 100 * ratio(float64(thw.totals().scaled-untracedHost), float64(untracedHost))
	r.Windows["profiled_host_windows"] = float64(len(phw.ws))

	if err := writeSpans(dir, tb.spans.keep, recs, toc.start, toc.end); err != nil {
		extra.add(1, "span dump: %v", err)
	}
	r.finish(extra, b, tb)
	return r
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// checkReplay asserts that the traced rig reproduced the untraced rig's
// simulated results exactly: tracing records host memory only and must
// not change a single event.
func checkReplay(a, b *outcome, f *failures) {
	if !reflect.DeepEqual(a.simMetrics(), b.simMetrics()) {
		f.add(1, "traced run's simulated metrics differ: %v vs %v", a.simMetrics(), b.simMetrics())
	}
	if !reflect.DeepEqual(a.points, b.points) || !reflect.DeepEqual(a.delta, b.delta) {
		f.add(1, "traced run's load points or layer counters differ from the untraced run's")
	}
}

// writeSpans dumps the benchmark's spans and, as a Chrome trace, the
// stage tracer's spans of the main span.
func writeSpans(dir string, bench []span, recs []trace.SpanRecord, start, end sim.Time) error {
	data, err := json.Marshal(bench)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644); err != nil {
		return err
	}
	var keep []trace.SpanRecord
	for _, r := range recs {
		if at := r.MS[trace.MSubmit]; at > start && at <= end && len(keep) < chromeKeep {
			keep = append(keep, r)
		}
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, keep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const chromeKeep = 2000 // stage-tracer spans in the Chrome trace dump

// write saves the full report and prints the summary and the result line.
func (r *report) write(dir string, stdout io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		r.Workload, r.Seed, r.Traced, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion)
	for _, p := range r.Points {
		beyond := p.Samples - int(math.Ceil(0.99*float64(p.Samples)))
		fmt.Fprintf(stdout, "  point %-12s load=%-6g kiops=%-9.2f p50=%.2fus p99=%.2fus samples=%d beyond_p99=%d backlog_growth=%d meets_p99<=%gus=%v\n",
			p.Label, p.Load, p.KIOPS, p.P50US, p.P99US, p.Samples, beyond, p.Backlog, r.LimitUS, p.Pass)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]val{}}
	for _, d := range r.defs {
		v := r.Metrics[d.Name]
		res.Metrics[d.Name] = val{v, d.Unit}
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
