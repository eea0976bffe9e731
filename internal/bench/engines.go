package bench

// Engine selection for the experiment harness: every simulated cluster an
// experiment builds can run its collectives against either the memoized
// analytic model (netsim, the fast path) or the discrete-event engine
// (devent, link-level transfers over an explicit topology graph). The two
// are cross-validated on contention-free flat topologies (see
// internal/devent's tests); on congested hierarchical graphs the event
// engine prices trunk contention the closed forms cannot see, and
// AblationEngineDelta reports that gap directly.

import (
	"fmt"
	"io"

	"xmoe/internal/devent"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/netsim"
	"xmoe/internal/simrt"
	"xmoe/internal/topology"
	"xmoe/internal/transport"
)

// EngineSpecs lists the accepted Options.Engine values, for flag help.
const EngineSpecs = "analytic, event, event:flat, event:rail, event:noc"

// NewEngine builds the cost engine named by spec for a world-sized job on
// machine m. "analytic" (or empty) returns nil: callers leave
// Cluster.Engine unset and the cluster falls through to its analytic
// Network. "event" is an alias for "event:rail", the 2-level node/rail
// graph matching the machine's NIC and spine structure.
func NewEngine(m *topology.Machine, world int, spec string) (netsim.CostEngine, error) {
	switch spec {
	case "", "analytic":
		return nil, nil
	case "event", "event:rail":
		return devent.New(topology.RailGraph(m, world, 0)), nil
	case "event:noc":
		return devent.New(topology.NoCGraph(m, world, 0)), nil
	case "event:flat":
		return devent.New(topology.FlatGraph(m, world)), nil
	}
	return nil, fmt.Errorf("bench: unknown engine %q (want one of: %s)", spec, EngineSpecs)
}

// applyEngine installs the Options-selected engine on a freshly built
// cluster. Experiments build many short-lived clusters, so this panics on
// a bad spec rather than threading errors through every sweep;
// cmd/xmoe-bench validates its -engine flag with NewEngine up front.
func (o Options) applyEngine(c *simrt.Cluster) {
	eng, err := NewEngine(c.Machine, c.NumRanks, o.Engine)
	if err != nil {
		panic(err)
	}
	if eng != nil {
		c.Engine = eng
	}
}

// AblationEngineDelta cross-validates the two cost engines on the
// Fig. 11 Large-model layer at EP=64 (EP=16 in quick mode): the same
// blocking forward pass is priced by the analytic closed forms and by
// link-level event simulation over the 2-level node/rail graph. The
// analytic model serializes each collective against private per-class
// bandwidth, so on a congested hierarchy — eight ranks funneling through
// one node NIC — the event engine's fair-shared trunks must report a
// strictly slower layer: the delta rows are the congestion the fast path
// cannot see, and they must be nonzero on every pipeline.
func AblationEngineDelta(w io.Writer, opts Options) []Row {
	m := topology.Frontier()
	shape := model.Large()
	ep, s := 64, shape.SeqLen
	if opts.Quick {
		ep, s = 16, 2048
	}
	cfg := moe.LayerOf(shape)
	layer := func(pipe transport.Kind, engine string) float64 {
		return simrt.MaxClock(runLayer(layerSpec{machine: m, cfg: cfg, world: ep, s: s, kind: pipe,
			fwdChunks: 1, engine: engine, seed: opts.Seed})) * 1e3
	}

	var rows []Row
	for _, pipe := range transport.Kinds() {
		an, ev := layer(pipe, "analytic"), layer(pipe, "event")
		key := pipe.String() + "/"
		rows = append(rows, Row{key + "analytic", "ms", an, 0}, Row{key + "event:rail", "ms", ev, 0},
			Row{key + "congestion delta", "%", (ev - an) / an * 100, 0})
	}
	return render(w, "Ablation: analytic vs event engine, Large layer, EP=64 (16 with -quick), blocking fwd", rows,
		"event:rail prices fair-shared NIC/spine trunks the analytic closed forms",
		"serialize away; flat contention-free graphs agree to 1e-12 s (devent tests)")
}
