package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %g, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func TestDigest(t *testing.T) {
	a := digestOf([]float64{1, 2, 3})
	if a != digestOf([]float64{1, 2, 3}) {
		t.Error("equal inputs hash differently")
	}
	if a == digestOf([]float64{3, 2, 1}) {
		t.Error("digest ignores order")
	}
	if digestOf([]float64{0}) == digestOf([]float64{math.Copysign(0, -1)}) {
		t.Error("digest ignores the sign bit of zero: it must compare bit patterns")
	}
	if a == digestOf([]float64{1, 2, math.Nextafter(3, 4)}) {
		t.Error("digest ignores a one-ulp difference")
	}
	// Adding in pieces equals adding at once: the runner hashes op by op.
	d := newDigest()
	d.add(1)
	d.add(2, 3)
	if d.String() != a {
		t.Errorf("piecewise digest %s, whole %s", d, a)
	}
}

func TestCoveredIsAUnion(t *testing.T) {
	iv := [][2]time.Duration{{10, 30}, {20, 40}, {60, 70}, {0, 5}}
	if got := covered(iv, 3, 65); got != 2+30+5 {
		t.Errorf("covered = %d, want 37", got)
	}
}

// TestTracerSelfTime checks parent links and self time on a hand-built
// trace: a driver span with two rank spans that overlap each other.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	endRun := tr.begin("run", driverTID)
	endA := tr.begin("rank", 1)
	endB := tr.begin("rank", 2)
	time.Sleep(5 * time.Millisecond)
	endA()
	endB()
	tr.leaf("query", engineTID, time.Now(), time.Millisecond)
	endRun()

	if tr.spans[1].parent != 0 || tr.spans[2].parent != 0 || tr.spans[3].parent != 0 {
		t.Fatalf("rank and query spans must hang under the driver span: %+v", tr.spans)
	}
	rows := map[string]layerRow{}
	for _, r := range tr.layerTable() {
		rows[r.Name] = r
	}
	if rows["rank"].Calls != 2 || rows["rank"].TotalMs < 10 {
		t.Errorf("rank row = %+v, want 2 calls of >= 5 ms each", rows["rank"])
	}
	// The two rank spans run side by side, so they cover ~5 ms of the run
	// span, not 10: self time must stay non-negative.
	if self := rows["run"].SelfMs; self < 0 || self > rows["run"].TotalMs-4 {
		t.Errorf("run self time %g ms of %g ms total", self, rows["run"].TotalMs)
	}

	var buf bytes.Buffer
	if err := tr.writeChromeTrace(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 { // process name + 4 spans
		t.Errorf("%d trace events, want 5", len(doc.TraceEvents))
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	tr.setOp(3)
	tr.begin("x", driverTID)()
	tr.leaf("y", engineTID, time.Now(), 0)
	tr.count("z", 1)
	if tr.counter("z") != 0 || tr.layerTable() != nil {
		t.Error("nil tracer recorded something")
	}
}

// TestCountingEngineSameCost: the decorator must hand back the wrapped
// engine's Cost bit for bit, for both engines and every query kind, and
// count at the boundary.
func TestCountingEngineSameCost(t *testing.T) {
	m := frontier()
	const world = 16
	ranks := make([]int, world)
	matrix := make([][]int64, world)
	perRank := make([]int64, world)
	for i := range ranks {
		ranks[i] = i
		perRank[i] = int64(4096 + 17*i)
		matrix[i] = make([]int64, world)
		for j := range matrix[i] {
			matrix[i][j] = int64(1<<14 + 131*i + 7*j)
		}
	}
	engines := map[string]func() costEngine{
		"netsim": func() costEngine { return newAnalyticEngine(m, 7, world) },
		"devent": func() costEngine { return newEventEngine(railGraph(m, world)) },
	}
	for layer, build := range engines {
		plain, tr := build(), newTracer()
		wrapped := newCountingEngine(build(), tr, layer)
		queries := []struct {
			kind string
			call func(e costEngine) netCost
		}{
			{"a2av", func(e costEngine) netCost { return e.AlltoAllV(ranks, matrix) }},
			{"allreduce", func(e costEngine) netCost { return e.AllReduce(ranks, 1<<20) }},
			{"allgather", func(e costEngine) netCost { return e.AllGather(ranks, perRank) }},
			{"reducescatter", func(e costEngine) netCost { return e.ReduceScatter(ranks, 1<<20) }},
			{"broadcast", func(e costEngine) netCost { return e.Broadcast(ranks, 1<<18) }},
			{"barrier", func(e costEngine) netCost { return e.Barrier(ranks) }},
		}
		for _, q := range queries {
			want, got := q.call(plain), q.call(wrapped)
			if math.Float64bits(want.Seconds) != math.Float64bits(got.Seconds) ||
				math.Float64bits(want.CongestionDelay) != math.Float64bits(got.CongestionDelay) ||
				!reflect.DeepEqual(want.BytesByClass, got.BytesByClass) {
				t.Errorf("%s %s: wrapped cost %+v, plain %+v", layer, q.kind, got, want)
			}
		}
		queries[0].call(wrapped) // the same all-to-all again: a repeat
		if got := tr.counter(layer + ".queries"); got != 7 {
			t.Errorf("%s: %g queries counted, want 7", layer, got)
		}
		if got := tr.counter(layer + ".repeat_queries"); got != 1 {
			t.Errorf("%s: %g repeats counted, want 1", layer, got)
		}
		if wrapped.EngineName() != plain.EngineName() {
			t.Errorf("%s: decorator renamed the engine to %q", layer, wrapped.EngineName())
		}
	}
}

func TestQueryKeySeparatesRows(t *testing.T) {
	a := queryKey("a2av", []int{0, 1}, []int64{1}, []int64{2})
	b := queryKey("a2av", []int{0, 1}, []int64{1, 2})
	if a == b {
		t.Error("[[1],[2]] and [[1,2]] share a key")
	}
}

func TestProbeNsCountsCalls(t *testing.T) {
	last := -1
	ns := probeNs(time.Millisecond, func(n int) {
		if n != last+1 {
			t.Fatalf("call %d followed call %d", n, last)
		}
		last = n
	})
	if ns <= 0 || last < 3 {
		t.Errorf("probeNs = %g ns after %d calls", ns, last+1)
	}
}

// TestOnlyAPIImportsTheRepo keeps the promise api.go makes: it is the one
// file that names the repository's packages.
func TestOnlyAPIImportsTheRepo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(imp.Path.Value, `"xmoe/`) && file != "api.go" {
				t.Errorf("%s imports %s; only api.go may import the repository", file, imp.Path.Value)
			}
		}
	}
}

// TestManifest checks BENCHMARK.json against the tables the code prints
// from, and against the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(onDisk), manifestJSON()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside the contract", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q): duplicate name or over-long", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for name := range spanMetrics {
		if !seen[name] {
			t.Errorf("spanMetrics names %q, which is not a per-layer metric", name)
		}
	}
}

// TestSmokeAllWorkloads sets every workload up once, runs operation 0
// under the tracer and replays it: the replay must reproduce the simulated
// floats, and the per-layer numbers the operation reads must be metrics
// the manifest knows.
func TestSmokeAllWorkloads(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			st, err := w.setup(42, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, numeric := st.(*trainState); numeric {
				// The trainers' replay restores the checkpoint warm-up takes;
				// the symbolic workloads skip warm-up to keep tier-1 cheap.
				if err := st.warmup(); err != nil {
					t.Fatal(err)
				}
			}
			tr := newTracer()
			first, err := safeOp(func() (opOut, error) { return st.op(0, tr) })
			if err != nil {
				t.Fatal(err)
			}
			if len(first.sim) == 0 || !finite(first.sim...) || !(first.simMs > 0) {
				t.Fatalf("operation 0 produced sim %v, %g ms", first.sim, first.simMs)
			}
			for name := range first.read {
				if !known[name] {
					t.Errorf("operation reads %q, which is not a per-layer metric", name)
				}
			}
			if len(tr.layerTable()) == 0 {
				t.Error("traced operation recorded no span")
			}
			second, err := safeOp(st.replay)
			if err != nil {
				t.Fatal(err)
			}
			if digestOf(first.sim) != digestOf(second.sim) {
				t.Errorf("operation 0 is not reproducible: %v then %v", first.sim, second.sim)
			}
		})
	}
}

// TestRunReportsEveryMetric runs the cheapest workload through the whole
// untraced runner with a fixed operation count.
func TestRunReportsEveryMetric(t *testing.T) {
	w, _ := workloadByName("step_sweep")
	res, err := run(runConfig{workload: w, seed: 42, seconds: 1, ops: 1, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2 { // one op and its replay
		t.Errorf("correct=%v attempted=%d failed=%d %v", res.Correct, res.Attempted, res.Failed, res.failures)
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || !finite(m.Value) || m.Value <= 0 {
			t.Errorf("metric %s = %+v (present %v): want a finite positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(endToEnd))
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not marshal: %v", err)
	}
}

func TestCompareDirection(t *testing.T) {
	lowerIsBetter := metricDef{Name: "host_ms_per_op", Better: lower, Bound: 0.10}
	if c := compare("w", lowerIsBetter, 100, 105); !c.InsideBound || math.Abs(c.WorsePct-5) > 1e-9 {
		t.Errorf("100 -> 105 ms: %+v", c)
	}
	if c := compare("w", lowerIsBetter, 100, 120); c.InsideBound {
		t.Errorf("100 -> 120 ms is inside a 10%% bound: %+v", c)
	}
	higherIsBetter := metricDef{Name: "ok_share", Better: higher, Bound: 0.001}
	if c := compare("w", higherIsBetter, 1, 0.9); c.InsideBound || c.WorsePct < 9.9 {
		t.Errorf("ok_share 1 -> 0.9: %+v", c)
	}
}
