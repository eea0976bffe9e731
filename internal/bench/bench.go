// Package bench is the experiment harness of the reproduction: one entry
// point per table and figure of the paper's evaluation (§5 and the
// appendices), each regenerating the artifact's rows/series from the
// simulated systems and printing them next to the paper's reported
// values. The cmd/xmoe-bench binary and the repository-root benchmarks
// drive these entry points.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Options configures experiment execution.
type Options struct {
	// Seed drives all stochastic components (routing, congestion).
	Seed uint64
	// Quick reduces iteration counts and sweep ranges for use inside
	// unit tests and testing.B loops; full fidelity runs leave it false.
	Quick bool
	// Chunks overrides the chunk counts the overlap ablations sweep
	// (default {1, 2, 4, 8}); entries must pass PipelineOpts.Check.
	Chunks []int
	// Engine selects the collective cost engine the simulated clusters
	// run against: "analytic" (or empty, the memoized fast path),
	// "event"/"event:rail" (link-level transfers over the 2-level
	// node/rail graph), or "event:noc" (NoC-style hierarchy). See
	// NewEngine for the full vocabulary.
	Engine string
}

// chunkCounts returns the overlap sweep's chunk counts. The sweep tables
// and every recorded speedup are relative to the C=1 blocking baseline,
// so 1 is always included (first), and duplicates or non-positive
// entries are dropped — a user-supplied `-chunks 4,8` sweeps {1, 4, 8}.
func (o Options) chunkCounts() []int {
	if len(o.Chunks) == 0 {
		return []int{1, 2, 4, 8}
	}
	out := []int{1}
	seen := map[int]bool{1: true}
	for _, c := range o.Chunks {
		if c > 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Experiment metrics registry: experiments report headline simulated
// quantities (throughput, layer times) here so machine-readable harnesses
// (cmd/xmoe-bench -json) can export them alongside host-side ns/op and
// allocs/op without re-parsing the printed tables.
var (
	metricsMu sync.Mutex
	metrics   = map[string]float64{}
)

// RecordMetric stores a named scalar for the current experiment run,
// overwriting any previous value.
func RecordMetric(name string, v float64) {
	metricsMu.Lock()
	metrics[name] = v
	metricsMu.Unlock()
}

// DrainMetrics returns all metrics recorded since the last drain and
// clears the registry.
func DrainMetrics() map[string]float64 {
	metricsMu.Lock()
	out := metrics
	metrics = map[string]float64{}
	metricsMu.Unlock()
	return out
}

// header prints a section banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// table is a minimal fixed-width table printer.
type table struct {
	cols   []string
	rows   [][]string
	widths []int
}

func newTable(cols ...string) *table {
	t := &table{cols: cols, widths: make([]int, len(cols))}
	for i, c := range cols {
		t.widths[i] = len(c)
	}
	return t
}

func (t *table) add(cells ...string) {
	for i, c := range cells {
		if i < len(t.widths) && len(c) > t.widths[i] {
			t.widths[i] = len(c)
		}
	}
	t.rows = append(t.rows, cells)
}

func (t *table) write(w io.Writer) {
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", t.widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.cols)
	sep := make([]string, len(t.cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", t.widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// gb formats bytes as GiB.
func gb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }

// ms formats seconds as milliseconds.
func ms(s float64) string { return fmt.Sprintf("%.2f", s*1e3) }
