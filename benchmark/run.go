package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

const (
	// pinnedProcs is the GOMAXPROCS and tensor worker bound every run uses
	// (fewer on a one-core host): one driver goroutine, the simulator's
	// rank goroutines share two OS threads.
	pinnedProcs = 2
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median and the last state is the one that is measured.
	setupReps = 3
	// The traced run splits its time: an untraced pass (the base for
	// host.trace_overhead_pct), a traced pass, then the probes.
	tracedPassShare = 0.35
)

// runConfig is one invocation on one workload.
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64
	// ops, when > 0, replaces the time budget with a fixed operation count.
	ops    int
	trace  bool
	outDir string // where the traced run writes its trace JSON and table
	// cpuProfile, when set, receives a CPU profile of the untraced loop.
	cpuProfile string
}

// result is what one run reports; its JSON form is the contract's last
// line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Not part of the contract line: printed above it for people.
	simDigest string
	samples   int
	failures  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is one closed loop of operations on one state.
type pass struct {
	opMs []float64
	// peakRSS is the resident-set high-water mark of each operation, or of
	// the process so far where the kernel will not reset the mark.
	peakRSS  []float64
	outs     []opOut // outputs of the successful operations, in order
	failures []string
	// Deltas of runtime.MemStats over the loop; the GCs the runner forces
	// between operations are not counted as cycles.
	allocBytes, mallocs, gcPauseNs uint64
	gcCycles                       uint32
}

// safeOp runs one operation and turns a panic into a failure.
func safeOp(fn func() (opOut, error)) (out opOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// runPass runs operations first, first+1, ... until the budget is spent
// (at least minOps), or exactly ops of them when ops > 0.
func runPass(st state, first int, budget time.Duration, minOps, ops int, tr *tracer) pass {
	var p pass
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(budget)
	for n := 0; ; n++ {
		if ops > 0 && n >= ops {
			break
		}
		if ops <= 0 && n >= minOps && !time.Now().Before(deadline) {
			break
		}
		i := first + n
		tr.setOp(i)
		// Every operation starts from a collected heap and a fresh
		// high-water mark, untimed: the GC work and the peak memory inside
		// an operation are then its own, not what its predecessor left.
		runtime.GC()
		resetPeakRSS()
		end := tr.begin("op", driverTID)
		start := time.Now()
		out, err := safeOp(func() (opOut, error) { return st.op(i, tr) })
		p.opMs = append(p.opMs, ms(time.Since(start)))
		end()
		if rss, rssErr := peakRSSMB(); rssErr == nil {
			p.peakRSS = append(p.peakRSS, rss)
		} else if err == nil {
			err = rssErr
		}
		if err != nil {
			p.failures = append(p.failures, fmt.Sprintf("op %d: %v", i, err))
			continue
		}
		p.outs = append(p.outs, out)
	}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	p.gcCycles = after.NumGC - before.NumGC - uint32(len(p.opMs))
	return p
}

// run measures one workload once.
func run(cfg runConfig) (result, error) {
	procs := min(pinnedProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	setMaxWorkers(procs)

	w := cfg.workload
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up is everything before the first timed operation: inputs from
	// the seed, program objects, warm-up. It runs several times; the
	// traced run records its spans on the last.
	var st state
	var setupS []float64
	for k := 0; k < setupReps; k++ {
		st = nil
		runtime.GC()
		var setupTr *tracer
		if k == setupReps-1 {
			setupTr = tr
		}
		tr.setOp(-1)
		start := time.Now()
		s, err := w.setup(cfg.seed, setupTr)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if err := s.warmup(); err != nil {
			return result{}, fmt.Errorf("warm-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		st = s
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget = time.Duration(float64(budget) * tracedPassShare)
	}
	stopProfile, err := startCPUProfile(cfg.cpuProfile)
	if err != nil {
		return result{}, err
	}
	base := runPass(st, 0, budget, w.simOps, cfg.ops, nil)
	if err := stopProfile(); err != nil {
		return result{}, err
	}

	res := result{Metrics: map[string]metricValue{}, samples: len(base.opMs)}
	res.failures = append(res.failures, base.failures...)
	res.Attempted = len(base.opMs)

	var layer map[string]float64
	if cfg.trace {
		if layer, err = tracedPass(cfg, st, tr, base, &res); err != nil {
			return result{}, err
		}
	}

	// Simulated outputs come from the fixed prefix of operations.
	prefix := base.outs
	if len(prefix) > w.simOps {
		prefix = prefix[:w.simOps]
	}
	dig := newDigest()
	var simMs []float64
	for _, o := range prefix {
		dig.add(o.sim...)
		simMs = append(simMs, o.simMs)
	}
	res.simDigest = dig.String()

	// Replay operation 0, untimed: same inputs must give the same floats.
	res.Attempted++
	replayed, err := safeOp(st.replay)
	switch {
	case err != nil:
		res.failures = append(res.failures, fmt.Sprintf("replay of op 0: %v", err))
	case len(base.outs) > 0 && digestOf(replayed.sim) != digestOf(base.outs[0].sim):
		res.failures = append(res.failures, fmt.Sprintf("replay of op 0: digest %s, first run %s",
			digestOf(replayed.sim), digestOf(base.outs[0].sim)))
	}
	res.Failed = len(res.failures)
	res.Correct = res.Failed == 0

	if cfg.trace {
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{layer[d.Name], d.Unit}
		}
		return res, nil
	}

	// Native values come from the fixed prefix; the reference pass fills
	// in the two metrics this workload's operations do not produce.
	var paperErrs []float64
	loss := math.NaN()
	for _, o := range prefix {
		paperErrs = append(paperErrs, o.paperErrPct)
		loss = o.loss
	}
	paperErr := mean(paperErrs)
	if math.IsNaN(paperErr) {
		if paperErr, err = referencePaperErr(); err != nil {
			return result{}, err
		}
	}
	if math.IsNaN(loss) {
		if loss, err = referenceLoss(); err != nil {
			return result{}, err
		}
	}
	n := float64(len(base.opMs))
	values := map[string]float64{
		"setup_s":            median(setupS),
		"host_ms_per_op":     median(base.opMs),
		"host_ms_per_op_p75": percentile(base.opMs, 0.75),
		"alloc_mb_per_op":    float64(base.allocBytes) / n / 1e6,
		"allocs_per_op":      float64(base.mallocs) / n,
		"peak_rss_mb":        median(base.peakRSS),
		"ok_share":           1 - float64(res.Failed)/float64(res.Attempted),
		"paper_err_pct":      paperErr,
		"sim_step_ms":        mean(simMs),
		"final_loss":         loss,
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return res, nil
}

// startCPUProfile starts profiling into path and returns the function
// that stops it; with an empty path both do nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// tracedPass reruns the workload under the tracer, runs the extras and the
// probes, writes the trace artefacts and returns the per-layer metrics.
func tracedPass(cfg runConfig, st state, tr *tracer, base pass, res *result) (map[string]float64, error) {
	budget := time.Duration(cfg.seconds * tracedPassShare * float64(time.Second))

	// host.goroutines_peak: sampled, because the rank goroutines live
	// inside calls the benchmark cannot look into.
	var peak atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()
	traced := runPass(st, len(base.opMs), budget, 1, cfg.ops, tr)
	close(stop)
	<-done
	res.failures = append(res.failures, traced.failures...)
	res.Attempted += len(traced.opMs)
	tracedOps := float64(len(traced.opMs))

	// Counts of the operations, before extras add theirs.
	counts := tr.snapshotCounts()

	tr.setOp(-1)
	extra, err := st.extras(tr)
	if err != nil {
		return nil, fmt.Errorf("extras: %w", err)
	}
	probes, err := runProbes(cfg.seed, st.shapes())
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	layer := map[string]float64{}
	// T: mean span duration.
	meanMs := map[string]float64{}
	for _, row := range tr.layerTable() {
		meanMs[row.Name] = row.TotalMs / float64(row.Calls)
	}
	for name, sm := range spanMetrics {
		layer[name] = meanMs[sm.span] * sm.scale
	}
	// C: counts per traced operation.
	perOp := func(k string) float64 { return counts[k] / tracedOps }
	layer["moe.pft_allocs_per_op"] = perOp("moe.pft_allocs")
	for _, eng := range []string{"netsim", "devent"} {
		layer[eng+".queries_per_op"] = perOp(eng + ".queries")
		layer[eng+".query_busy_ms_per_op"] = perOp(eng + ".query_busy_ms")
	}
	layer["netsim.repeat_query_share"] = share(counts["netsim.repeat_queries"], counts["netsim.queries"])
	layer["devent.allocs_per_query"] = share(counts["devent.query_allocs"], counts["devent.queries"])
	// R: means over the traced operations.
	for _, o := range traced.outs {
		for k, v := range o.read {
			layer[k] += v / float64(len(traced.outs))
		}
	}
	for k, v := range extra {
		layer[k] = v
	}
	// P.
	for k, v := range probes {
		layer[k] = v
	}
	// host.
	baseOps := float64(len(base.opMs))
	layer["host.gc_cycles_per_op"] = float64(base.gcCycles) / baseOps
	layer["host.gc_pause_ms_per_op"] = float64(base.gcPauseNs) / 1e6 / baseOps
	layer["host.goroutines_peak"] = float64(peak.Load())
	layer["host.trace_overhead_pct"] = (median(traced.opMs) - median(base.opMs)) / median(base.opMs) * 100

	return layer, writeTraceFiles(cfg, tr)
}

// writeTraceFiles writes the Chrome trace JSON and the per-layer table.
func writeTraceFiles(cfg runConfig, tr *tracer) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	name := cfg.workload.name
	f, err := os.Create(filepath.Join(cfg.outDir, "trace_"+name+".json"))
	if err != nil {
		return err
	}
	if err := tr.writeChromeTrace(f, "benchmark/"+name); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(filepath.Join(cfg.outDir, "layers_"+name+".txt"))
	if err != nil {
		return err
	}
	writeLayerTable(t, tr.layerTable())
	return t.Close()
}
