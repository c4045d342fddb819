package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// The same seed must give identical simulated results on every workload.
func TestSameSeedSameSimMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 7, tiny: true}
			var got []*outcome
			for i := 0; i < 2; i++ {
				s := w.build(o)
				oc := s.run(&hostWindows{})
				s.rig().shutdown()
				if f := s.rig().fail; f.n != 0 {
					t.Fatalf("run %d failed checks: %v", i, f.msgs)
				}
				got = append(got, oc)
			}
			var f failures
			checkReplay(got[0], got[1], &f)
			if f.n != 0 {
				t.Fatalf("same seed, different results: %v", f.msgs)
			}
			if m := got[0].simMetrics(); m["kiops"] <= 0 || m["p99_us"] <= 0 {
				t.Fatalf("empty run: %v", m)
			}
		})
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// has, with the same units, directions and bounds.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEnd:\n%v\n%v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer")
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %s", i, bf.Workloads[i], w.name)
		}
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
}

// Every metric a run emits is declared, and every declared one is
// emitted, in both modes.
func TestEmittedMetricsAreDeclared(t *testing.T) {
	w, _ := findWorkload("ordered-write")
	o := runOpts{seed: 3, tiny: true}
	for _, c := range []struct {
		name string
		rep  *report
		defs []metricDef
	}{
		{"untraced", untracedRun(w, o, time.Millisecond), endToEnd},
		{"traced", tracedRun(w, o, time.Millisecond, t.TempDir()), perLayer},
	} {
		if !c.rep.Correct {
			t.Fatalf("%s run failed: %v", c.name, c.rep.Failures)
		}
		var emitted, declared []string
		for k := range c.rep.Metrics {
			emitted = append(emitted, k)
		}
		for _, d := range c.defs {
			declared = append(declared, d.Name)
		}
		slices.Sort(emitted)
		slices.Sort(declared)
		if !slices.Equal(emitted, declared) {
			t.Errorf("%s: emitted %v\ndeclared %v", c.name, emitted, declared)
		}
	}
}

// A run prints the result line last and records its environment, seed
// and windows next to the results.
func TestRunRecordsEnvironment(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "ordered-write", "--seed", "5", "--seconds", "0.1",
		"--trace", "0", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Errorf("result keys %v, want %v", keys, want)
	}

	data, err := os.ReadFile(filepath.Join(dir, "ordered-write-seed5-trace0", "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	e := rep.Env
	if e.NProc != runtime.NumCPU() || e.GOMAXPROCS < 1 || e.GOMAXPROCS > e.NProc || e.GoVersion != runtime.Version() {
		t.Errorf("environment not recorded: %+v", e)
	}
	if rep.Seed != 5 {
		t.Errorf("seed %d recorded, want 5", rep.Seed)
	}
	for _, k := range []string{"warmup", "main_span", "host_window"} {
		if rep.Windows[k] <= 0 {
			t.Errorf("window %s not recorded: %v", k, rep.Windows)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/stack.(*Initiator).OrderedWrite"}, "alloc_gc"},
		{[]string{"runtime.chanrecv", "repro/internal/sim.(*Proc).park", "repro/internal/stack.x"}, "handoff"},
		{[]string{"runtime.schedule", "runtime.park_m", "runtime.mcall"}, "handoff"},
		{[]string{"runtime.mapaccess2", "repro/internal/kv.(*DB).Get", "repro/internal/sim.x"}, "kv"},
		{[]string{"main.(*base).blockWriters.func1"}, "workload"},
		{[]string{"repro/internal/blockdev.(*Volume).Map"}, "other"},
		{[]string{"runtime.gcBgMarkWorker"}, "alloc_gc"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
