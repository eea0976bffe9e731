// Package bench is the experiment harness of the reproduction: one entry
// point per table and figure of the paper's evaluation (§5 and the
// appendices), each regenerating the artifact's points from the simulated
// systems as rows — a simulated value next to the paper's, where the paper
// states one — and printing them through one renderer. The cmd/xmoe-bench
// binary and the repository-root benchmarks drive the Experiments registry.
package bench

import (
	"fmt"
	"io"
	"strings"
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

// Row is one point an experiment reports.
type Row struct {
	// Key names the point by its sweep coordinates ("GPUs=16/X-MoE"); it
	// is unique within the experiment.
	Key string
	// Unit is a key of formats; it also says what Sim and Paper measure.
	Unit string
	// Sim is the simulated value.
	Sim float64
	// Paper is the paper's value for the same point: 0 where the paper
	// states none, or, on the TFLOPs rows of Fig. 9 and Table 5, where it
	// reports OOM.
	Paper float64
}

// Experiment is one entry of the registry.
type Experiment struct {
	Name string
	Run  func(w io.Writer, o Options) []Row
}

// Experiments lists every experiment in presentation order: the paper's
// tables and figures, then the ablations of §4's design choices.
var Experiments = []Experiment{
	{"table1", Table1SizeEquivalence},
	{"fig3", Figure3MemoryDistribution},
	{"fig4", Figure4Redundancy},
	{"fig9", Figure9MainResults},
	{"fig10a", Figure10aWeakScaling},
	{"fig10b", Figure10bStrongScaling},
	{"fig11", Figure11LayerBreakdown},
	{"fig12", Figure12RBDBreakdown},
	{"table4", Table4ActivationMemory},
	{"fig13", Figure13SSMBMemory},
	{"fig14", Figure14SSMBvsCkpt},
	{"table5", Table5CrossPlatform},
	{"fig15", Figure15LossValidation},
	{"fig17", Figure17AdvantageRegions},
	{"fig18", Figure18AlltoAllScaling},
	{"fig20", Figure20DepthTopK},
	{"appc1", AppendixC1Placement},
	{"abl-pilot", AblationPilotSelection},
	{"abl-capacity", AblationCapacityFactor},
	{"abl-rbd-ep", AblationRBDByEPSize},
	{"abl-overlap", AblationOverlap},
	{"abl-overlap-bwd", AblationOverlapBackward},
	{"abl-faults", AblationFaults},
	{"abl-engine-delta", AblationEngineDelta},
	{"abl-zero", AblationZeRO},
}

// OptionReaders names, for the Options fields only some experiments read
// (keyed by the xmoe-bench flag that sets each: "chunks" sets Chunks,
// "engine" Engine), the experiments that read the field; every other
// experiment ignores it. The CLI rejects such a flag when it selects none
// of them.
var OptionReaders = map[string][]string{
	"chunks": {"abl-overlap", "abl-overlap-bwd"},
	"engine": {"abl-overlap", "abl-overlap-bwd"},
}

// formats is the printf verb of each Unit. A zero TFLOPs or s (iteration
// time) value is an OOM; a bool is 1 (yes) or 0 (no).
var formats = map[string]string{
	"TFLOPs": "%.1f", "PFLOPs": "%.2f", "s": "%.2f", "ms": "%.2f", "GiB": "%.3f",
	"x": "%.2f", "%": "%.1f", "ratio": "%.3f", "loss": "%.4f", "count": "%.0f",
	"steps": "%.1f", "top-k": "%.2f", "bool": "",
}

func format(unit string, v float64) string {
	switch {
	case v == 0 && (unit == "TFLOPs" || unit == "s"):
		return "OOM"
	case unit == "bool" && v != 0:
		return "yes"
	case unit == "bool":
		return "no"
	}
	return fmt.Sprintf(formats[unit], v)
}

// render prints rows as one titled table — key, unit, simulated value and
// the paper's where it states one — followed by the notes, and returns the
// rows.
func render(w io.Writer, title string, rows []Row, notes ...string) []Row {
	cells := [][4]string{{"key", "unit", "sim", "paper"}, {}}
	for _, r := range rows {
		c := [4]string{r.Key, r.Unit, format(r.Unit, r.Sim), ""}
		if r.Paper != 0 {
			c[3] = format(r.Unit, r.Paper)
		}
		cells = append(cells, c)
	}
	var width [4]int
	for _, c := range cells {
		for i, s := range c {
			width[i] = max(width[i], len(s))
		}
	}
	for i := range cells[1] {
		cells[1][i] = strings.Repeat("-", width[i])
	}
	fmt.Fprintf(w, "\n=== %s ===\n", title)
	for _, c := range cells {
		fmt.Fprintf(w, "  %-*s  %-*s  %*s  %*s\n", width[0], c[0], width[1], c[1], width[2], c[2], width[3], c[3])
	}
	for _, n := range notes {
		fmt.Fprintln(w, "  "+n)
	}
	return rows
}

// gib converts bytes to GiB.
func gib(b int64) float64 { return float64(b) / (1 << 30) }
