package transport

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// TestMain runs the package's tests with every lent send buffer filled with
// NaN at its last release (simrt.PoisonReleased), so a receiver that reads
// a payload after releasing it, or a buffer recycled before its last
// receiver is done with it, moves a bit the determinism checks compare.
func TestMain(m *testing.M) {
	simrt.PoisonReleased(true)
	os.Exit(m.Run())
}

// TestParseRoundTrip: every Kind maps to its name and back; names are
// case-sensitive; the empty and unknown names are rejected with an error
// that lists what is accepted.
func TestParseRoundTrip(t *testing.T) {
	if len(Kinds()) != len(kinds) {
		t.Fatalf("Kinds() lists %d transports, the table has %d", len(Kinds()), len(kinds))
	}
	for _, k := range Kinds() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, bad := range []string{"", "PFT", "Rbd", "tutel", "pft ", "transport.Kind(7)"} {
		_, err := Parse(bad)
		if err == nil {
			t.Errorf("Parse(%q) accepted", bad)
			continue
		}
		for _, k := range Kinds() {
			if !strings.Contains(err.Error(), k.String()) {
				t.Errorf("Parse(%q) error %q does not list %q", bad, err, k)
			}
		}
	}
	if s := Kind(7).String(); s != "transport.Kind(7)" {
		t.Errorf("out-of-range Kind prints %q", s)
	}
}

// TestCheckRejections has one case per message Kind.Check can return, and
// the combinations next to them that must pass.
func TestCheckRejections(t *testing.T) {
	cfg := moe.Config{NumExperts: 8, TopK: 2, HModel: 16, HFFN: 8, CapacityFactor: 1.25, BytesPerElem: 2}
	caps := func(n int) []int {
		c := make([]int, n)
		for i := range c {
			c[i] = 3
		}
		return c
	}
	cases := []struct {
		name string
		kind Kind
		opts moe.PipelineOpts
		opt  string // "" = must pass
		want string
	}{
		{"pft short caps", PFT, moe.PipelineOpts{CapacityByExpert: caps(7)}, "CapacityByExpert", "has 7 entries, the layer has 8 experts"},
		{"rbd long caps", RBD, moe.PipelineOpts{CapacityByExpert: caps(9)}, "CapacityByExpert", "has 9 entries, the layer has 8 experts"},
		{"pft exact caps", PFT, moe.PipelineOpts{CapacityByExpert: caps(8)}, "", ""},
		{"rbd exact caps", RBD, moe.PipelineOpts{CapacityByExpert: caps(8)}, "", ""},
		{"padded rejects caps", Padded, moe.PipelineOpts{CapacityByExpert: caps(8)}, "CapacityByExpert", "even all-to-all requires uniform expert capacity"},
		{"rbd rejects CombineBytes", RBD, moe.PipelineOpts{CombineBytes: 4}, "CombineBytes", "hierarchical combine has no element-size override"},
		{"padded takes CombineBytes", Padded, moe.PipelineOpts{CombineBytes: 4}, "", ""},
		{"generic check propagates", PFT, moe.PipelineOpts{OverlapChunks: -1}, "OverlapChunks", "must be >= 0"},
		{"unknown pilot policy", RBD, moe.PipelineOpts{PilotPolicy: moe.PilotFirstExpert + 1}, "PilotPolicy", "unknown pilot policy 2"},
		{"zero caps entry", RBD, moe.PipelineOpts{CapacityByExpert: make([]int, 8)}, "CapacityByExpert", "must be >= 1"},
		{"unknown kind", Kind(7), moe.PipelineOpts{}, "Transport", "no such transport transport.Kind(7)"},
		{"negative kind", Kind(-1), moe.PipelineOpts{}, "Transport", "no such transport transport.Kind(-1)"},
	}
	c := simrt.NewCluster(topology.Frontier(), 8, 1)
	for _, tc := range cases {
		checks := []func(moe.PipelineOpts) error{func(o moe.PipelineOpts) error { return tc.kind.Check(cfg, o) }}
		if slices.Contains(Kinds(), tc.kind) { // New panics on any other Kind
			checks = append(checks, New(tc.kind, c, c.WorldGroup(), cfg).Check)
		}
		for _, check := range checks {
			err := check(tc.opts)
			if tc.opt == "" {
				if err != nil {
					t.Errorf("%s: rejected: %v", tc.name, err)
				}
				continue
			}
			var oe *moe.OptionError
			if !errors.As(err, &oe) || oe.Opt != tc.opt || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: got %v, want *moe.OptionError{Opt: %s} mentioning %q", tc.name, err, tc.opt, tc.want)
			}
		}
	}
}

// TestNewRejectsUnknownKind: an out-of-range Kind can only come from a
// programming error, and New says so instead of returning a nil Layer.
func TestNewRejectsUnknownKind(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "no such transport") {
			t.Fatalf("New(Kind(7)) panicked with %q", msg)
		}
	}()
	c := simrt.NewCluster(topology.Frontier(), 8, 1)
	New(Kind(7), c, c.WorldGroup(), moe.Config{NumExperts: 8})
}

// layerBits is what one numeric pass leaves behind on every rank; the
// gradients (dx, dw, dcw) are nil after a forward-only pass.
type layerBits struct {
	clocks       []uint64
	out          [][]float32
	dx           [][]float32
	dw           [][][]float32 // [rank][2*le + {0,1}]
	dcw          [][]float32
	recv, routed []int
}

// layerRig is one cluster with a kind layer built over its world group.
// Its run is one numeric pass with deterministic inputs, through the
// Layer, or through the pipelines' own entry points when the rig has no
// Layer; any number of runs may share the rig (and its tensor arenas,
// when pooling is on).
type layerRig struct {
	kind  Kind
	c     *simrt.Cluster
	layer *Layer
	d     *rbd.Dispatcher // the direct RBD calls' dispatcher
}

// rigCfg is the layer every rig runs: 8 experts a rank at world 4, 2 at
// world 16.
var rigCfg = moe.Config{NumExperts: 32, TopK: 4, HModel: 12, HFFN: 8, CapacityFactor: 1.25, BytesPerElem: 2}

// newLayerRig builds a rig of world ranks (16 spans two nodes), with the
// tensor arenas on when pools is set and allocate-fresh buffers otherwise.
func newLayerRig(kind Kind, world int, pools, viaLayer bool) *layerRig {
	c := simrt.NewCluster(topology.Frontier(), world, 5)
	c.Net.DisableCongestion = true
	c.DisablePools = !pools
	rg := &layerRig{kind: kind, c: c}
	if viaLayer {
		rg.layer = New(kind, c, c.WorldGroup(), rigCfg)
	} else if kind == RBD {
		rg.d = rbd.NewDispatcher(c, c.WorldGroup(), rigCfg)
	}
	return rg
}

// run executes one forward at fwdChunks and, unless bwdChunks is 0, the
// backward of its saved state at bwdChunks. PFT drops by capacity weight,
// the padded and RBD layers drop negative logits then by position.
func (rg *layerRig) run(t *testing.T, fwdChunks, bwdChunks int) layerBits {
	t.Helper()
	const s = 24
	cfg, world, g := rigCfg, rg.c.NumRanks, rg.c.WorldGroup()
	drop := moe.DropNegativeThenPosition
	if rg.kind == PFT {
		drop = moe.DropByCapacityWeight
	}
	got := layerBits{out: make([][]float32, world), recv: make([]int, world), routed: make([]int, world)}
	if bwdChunks > 0 {
		got.dx, got.dw, got.dcw = make([][]float32, world), make([][][]float32, world), make([][]float32, world)
	}
	ranks, err := rg.c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(8100 + uint64(r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		dOut := tensor.Randn(rng, 0.3, s, cfg.HModel)
		params := moe.NewExpertParams(tensor.NewRNG(77+uint64(r.ID)), cfg.NumExperts/world, cfg.HModel, cfg.HFFN)
		pilots := tensor.NewRNG(91 + uint64(r.ID))
		fwd := moe.PipelineOpts{DropPolicy: drop, SaveForBackward: bwdChunks > 0, OverlapChunks: fwdChunks}
		bwd := moe.PipelineOpts{DropPolicy: drop, OverlapChunks: bwdChunks}
		var res moe.LayerResult
		switch {
		case rg.layer != nil:
			res = rg.layer.Forward(r, s, x, routing, params, pilots, fwd)
		case rg.kind == PFT:
			res = moe.PFTForward(r, g, cfg, s, x, routing, params, fwd)
		case rg.kind == Padded:
			res = moe.PaddedForward(r, g, cfg, s, x, routing, params, fwd)
		case rg.kind == RBD:
			res = rbd.Forward(r, rg.d, cfg, s, x, routing, params, pilots, fwd)
		}
		got.out[r.ID], got.recv[r.ID], got.routed[r.ID] = res.Output.Data, res.RecvTokens, res.RoutedTokens
		if bwdChunks == 0 {
			return nil
		}
		var grads moe.BackwardResult
		switch {
		case rg.layer != nil:
			grads = res.State.Backward(r, dOut, params, bwd)
		case rg.kind == PFT:
			grads = moe.PFTBackward(r, g, cfg, res.State, dOut, params, bwd)
		case rg.kind == Padded:
			grads = moe.PaddedBackward(r, g, cfg, res.PaddedState, dOut, params, bwd)
		case rg.kind == RBD:
			grads = rbd.Backward(r, rg.d, cfg, res.State, dOut, params, bwd)
		}
		got.dx[r.ID], got.dcw[r.ID] = grads.DX.Data, grads.DCombineWeights
		for le := range grads.DW1 {
			got.dw[r.ID] = append(got.dw[r.ID], grads.DW1[le].Data, grads.DW2[le].Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rk := range ranks {
		got.clocks = append(got.clocks, math.Float64bits(rk.Clock))
	}
	return got
}

// diff names the first rank and value where got differs from want, a
// fwd+bwd run, by a single bit, or returns "": the output, RecvTokens and
// RoutedTokens, and unless got is forward-only dX, every dW and the
// combine-weight gradients. Clocks are not compared.
func (want layerBits) diff(got layerBits) string {
	for rank := range want.out {
		switch {
		case len(want.out[rank]) == 0 || len(want.dx[rank]) == 0 || len(want.dw[rank]) == 0:
			return fmt.Sprintf("rank %d: the reference produced no tensors", rank)
		case want.recv[rank] != got.recv[rank] || want.routed[rank] != got.routed[rank]:
			return fmt.Sprintf("rank %d: RecvTokens/RoutedTokens %d/%d, want %d/%d", rank,
				got.recv[rank], got.routed[rank], want.recv[rank], want.routed[rank])
		case !sameBits(want.out[rank], got.out[rank]):
			return fmt.Sprintf("rank %d: output differs", rank)
		case got.dx == nil:
			continue
		case !sameBits(want.dx[rank], got.dx[rank]):
			return fmt.Sprintf("rank %d: dX differs", rank)
		case !sameBits(want.dcw[rank], got.dcw[rank]):
			return fmt.Sprintf("rank %d: combine-weight gradients differ", rank)
		case len(want.dw[rank]) != len(got.dw[rank]):
			return fmt.Sprintf("rank %d: %d weight gradients, want %d", rank, len(got.dw[rank]), len(want.dw[rank]))
		}
		for i := range want.dw[rank] {
			if !sameBits(want.dw[rank][i], got.dw[rank][i]) {
				return fmt.Sprintf("rank %d: dW[%d] differs", rank, i)
			}
		}
	}
	return ""
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// poisonArenas fills every rank arena of c with NaN: on each rank it takes
// depth buffers of every bucket up to 1<<maxBucket elements (recycled ones
// first, then fresh), fills them with NaN and puts them all back, so the
// next run reads NaN from any pooled buffer it reads before writing.
func poisonArenas(t *testing.T, c *simrt.Cluster, maxBucket, depth int) {
	t.Helper()
	nan := float32(math.NaN())
	err := c.Run(func(r *simrt.Rank) error {
		pool := r.Pool()
		held := make([]*tensor.Tensor, 0, depth)
		for b := 0; b <= maxBucket; b++ {
			for range depth {
				buf := pool.Get(1 << b)
				buf.Fill(nan)
				held = append(held, buf)
			}
			pool.PutAll(held...)
			held = held[:0]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// rigMaxBucket and rigDepth cover every buffer a rig run takes from an
// arena: none has 1<<12 elements or more, and a run takes at most 16 of
// one bucket (a world-4 rank's weight gradients, which the rig keeps).
const rigMaxBucket, rigDepth = 12, 16

// TestLayerMatrix is the layer's determinism matrix: chunking re-times the
// exchanges and the arenas recycle buffers, but neither may move a bit.
// Every transport, at one node (world 4) and two (world 16), runs each
// (forward, backward) chunk pair — equal, forward-only-chunked,
// backward-only-chunked and mixed counts, including counts above some
// (source, expert) segments' row counts — and two forwards without a saved
// state, which free their buffers at the forward's end; each on
// allocate-fresh buffers and at the arenas' steady state (one pooled
// cluster warmed by two runs, so every arena cell reads the third run or a
// later one), whose arenas are poisoned with NaN before each arena cell,
// so a pooled buffer read before it is written shows as a difference.
// Every cell must match its kind and world's first blocking fresh run in
// every checked value. A failing subtest is named by its cell, e.g.
// TestLayerMatrix/rbd/w16/fwd4-bwd1/arena.
func TestLayerMatrix(t *testing.T) {
	pairs := [][2]int{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {8, 8}, {4, 1}, {1, 4}, {2, 8}, {1, 0}, {4, 0}}
	for _, kind := range Kinds() {
		for _, world := range []int{4, 16} {
			rigs := map[string]*layerRig{
				"fresh": newLayerRig(kind, world, false, true),
				"arena": newLayerRig(kind, world, true, true),
			}
			ref := rigs["fresh"].run(t, 1, 1)
			rigs["arena"].run(t, 1, 1)
			rigs["arena"].run(t, 1, 1)
			for _, p := range pairs {
				pass := fmt.Sprintf("fwd%d-bwd%d", p[0], p[1])
				if p[1] == 0 {
					pass = fmt.Sprintf("fwd%d-only", p[0])
				}
				for _, pools := range []string{"fresh", "arena"} {
					t.Run(fmt.Sprintf("%v/w%d/%s/%s", kind, world, pass, pools), func(t *testing.T) {
						if pools == "arena" {
							poisonArenas(t, rigs[pools].c, rigMaxBucket, rigDepth)
						}
						if d := ref.diff(rigs[pools].run(t, p[0], p[1])); d != "" {
							t.Error(d)
						}
					})
				}
			}
		}
	}
}

// TestLayerMatchesDirectCalls: the Layer adds nothing to and takes nothing
// from the pipelines it wraps — every checked tensor and every rank clock
// have equal bits through the Layer and through the direct calls, for all
// three kinds, blocking and chunked.
func TestLayerMatchesDirectCalls(t *testing.T) {
	for _, kind := range Kinds() {
		for _, chunks := range []int{1, 4} {
			direct := newLayerRig(kind, 16, false, false).run(t, chunks, chunks)
			via := newLayerRig(kind, 16, false, true).run(t, chunks, chunks)
			name := fmt.Sprintf("%v C=%d", kind, chunks)
			if d := direct.diff(via); d != "" {
				t.Errorf("%s: %s", name, d)
			}
			for rank := range direct.clocks {
				if direct.clocks[rank] != via.clocks[rank] {
					t.Errorf("%s rank %d: clock %016x direct, %016x via Layer", name, rank, direct.clocks[rank], via.clocks[rank])
				}
			}
		}
	}
}

// TestForwardStateOnlyWhenSaved: a forward without SaveForBackward keeps
// no state, and reversing it anyway fails with a typed
// *moe.OptionError{Opt: "SaveForBackward"} rather than a nil dereference;
// with SaveForBackward the backward runs — for every transport, handed x
// and dOut (numeric) or nil (symbolic). Only the forward handed x returns
// an Output.
func TestForwardStateOnlyWhenSaved(t *testing.T) {
	const world, s = 8, 32
	cfg := moe.Config{NumExperts: 16, TopK: 2, HModel: 8, HFFN: 4, CapacityFactor: 1.25, BytesPerElem: 2}
	for _, kind := range Kinds() {
		for _, numeric := range []bool{false, true} {
			for _, save := range []bool{false, true} {
				name := fmt.Sprintf("%v numeric=%v save=%v", kind, numeric, save)
				c := simrt.NewCluster(topology.Frontier(), world, 3)
				layer := New(kind, c, c.WorldGroup(), cfg)
				err := c.Run(func(r *simrt.Rank) error {
					rng := tensor.NewRNG(700 + uint64(r.ID))
					rt := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0)
					var x, dOut *tensor.Tensor
					var params *moe.ExpertParams
					if numeric {
						x, dOut = tensor.Randn(rng, 1, s, cfg.HModel), tensor.Randn(rng, 1, s, cfg.HModel)
						params = moe.NewExpertParams(rng, cfg.NumExperts/world, cfg.HModel, cfg.HFFN)
					}
					res := layer.Forward(r, s, x, rt, params, tensor.NewRNG(1), moe.PipelineOpts{SaveForBackward: save})
					if (res.Output != nil) != numeric {
						return fmt.Errorf("output %v after a forward handed x %v", res.Output != nil, numeric)
					}
					if (res.State != nil) != save {
						return fmt.Errorf("state %v after a forward with SaveForBackward %v", res.State != nil, save)
					}
					grads := res.State.Backward(r, dOut, params, moe.PipelineOpts{})
					if numeric && (grads.DX == nil || len(grads.DW1) != cfg.NumExperts/world) {
						return fmt.Errorf("numeric backward returned no gradients")
					}
					return nil
				})
				var oe *moe.OptionError
				switch {
				case save && err != nil:
					t.Errorf("%s: %v", name, err)
				case !save && (!errors.As(err, &oe) || oe.Opt != "SaveForBackward"):
					t.Errorf("%s: backward without a state: want *moe.OptionError{Opt: SaveForBackward}, got %v", name, err)
				}
			}
		}
	}
}

// TestForwardFreesItsStaging: a forward that retains no activations leaves
// the layer output as the only live tag on every rank's memory tracker,
// for every transport, blocking and chunked — so stacked layers and steps
// do not grow Mem.Current() by one staging footprint each.
func TestForwardFreesItsStaging(t *testing.T) {
	cfg := moe.Config{NumExperts: 32, TopK: 4, HModel: 64, HFFN: 32, CapacityFactor: 1.25, BytesPerElem: 2}
	const world, s = 16, 48
	for _, kind := range Kinds() {
		for _, chunks := range []int{1, 4} {
			c := simrt.NewCluster(topology.Frontier(), world, 3)
			layer := New(kind, c, c.WorldGroup(), cfg)
			err := c.Run(func(r *simrt.Rank) error {
				rt := moe.SyntheticRouting(tensor.NewRNG(uint64(r.ID)), s, cfg.NumExperts, cfg.TopK, 0.6)
				layer.Forward(r, s, nil, rt, nil, tensor.NewRNG(1), moe.PipelineOpts{OverlapChunks: chunks})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank := 0; rank < world; rank++ {
				mem := &c.Device(rank).Mem
				for tag, n := range mem.ByTag() {
					if n != 0 && tag != "output" {
						t.Errorf("%v C=%d rank %d: %d bytes still live under %q", kind, chunks, rank, n, tag)
					}
				}
				if want := int64(s * cfg.HModel * cfg.BytesPerElem); mem.Current() != want {
					t.Errorf("%v C=%d rank %d: %d bytes live after the forward, want the %d of the output", kind, chunks, rank, mem.Current(), want)
				}
			}
		}
	}
}

// priceBits is what one fwd+bwd prices, by bit pattern: every rank's clock
// and trace breakdown, and the cluster's peak memory; and how many ranks'
// forwards returned an Output.
type priceBits struct {
	clocks    []uint64
	breakdown []map[string]uint64
	peak      int64
	outputs   int
}

// runPriced executes one fwd+bwd of kind at chunk count c on a fresh
// two-node cluster, numeric (handed x, params and dOut) or symbolic
// (handed nil), over routing and pilot draws that do not depend on the
// mode.
func runPriced(t *testing.T, kind Kind, chunks int, numeric bool) priceBits {
	t.Helper()
	const world, s = 16, 32
	cfg := moe.Config{NumExperts: 32, TopK: 6, HModel: 12, HFFN: 8, CapacityFactor: 1.25, BytesPerElem: 2}
	c := simrt.NewCluster(topology.Frontier(), world, 5)
	layer := New(kind, c, c.WorldGroup(), cfg)
	drop := moe.DropByCapacityWeight
	if kind == Padded {
		drop = moe.DropNegativeThenPosition
	}
	var outputs atomic.Int64
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		routing := moe.SyntheticRouting(tensor.NewRNG(8300+uint64(r.ID)), s, cfg.NumExperts, cfg.TopK, 0.6)
		var x, dOut *tensor.Tensor
		var params *moe.ExpertParams
		if numeric {
			rng := tensor.NewRNG(8400 + uint64(r.ID))
			x, dOut = tensor.Randn(rng, 1, s, cfg.HModel), tensor.Randn(rng, 0.3, s, cfg.HModel)
			params = moe.NewExpertParams(rng, cfg.NumExperts/world, cfg.HModel, cfg.HFFN)
		}
		fwd := moe.PipelineOpts{DropPolicy: drop, SaveForBackward: true, OverlapChunks: chunks}
		bwd := moe.PipelineOpts{DropPolicy: drop, OverlapChunks: chunks}
		res := layer.Forward(r, s, x, routing, params, tensor.NewRNG(91+uint64(r.ID)), fwd)
		if res.Output != nil {
			outputs.Add(1)
		}
		res.State.Backward(r, dOut, params, bwd)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := priceBits{peak: c.PeakMemory(), outputs: int(outputs.Load())}
	for _, rk := range ranks {
		got.clocks = append(got.clocks, math.Float64bits(rk.Clock))
		bd := map[string]uint64{}
		for stage, v := range rk.Trace.Breakdown() {
			bd[stage] = math.Float64bits(v)
		}
		got.breakdown = append(got.breakdown, bd)
	}
	return got
}

// TestSymbolicPricesLikeNumeric: a symbolic pass moves no row but must
// price exactly what the numeric pass over the same routing prices —
// every rank's clock, every stage of its trace breakdown and the peak
// memory, bit for bit — for every transport, blocking and chunked. Only
// the forwards handed x return an Output.
func TestSymbolicPricesLikeNumeric(t *testing.T) {
	for _, kind := range Kinds() {
		for _, chunks := range []int{1, 2, 4} {
			sym, num := runPriced(t, kind, chunks, false), runPriced(t, kind, chunks, true)
			name := fmt.Sprintf("%v C=%d", kind, chunks)
			if sym.outputs != 0 || num.outputs != len(num.clocks) {
				t.Errorf("%s: %d symbolic and %d of %d numeric forwards returned an Output", name, sym.outputs, num.outputs, len(num.clocks))
			}
			if sym.peak != num.peak {
				t.Errorf("%s: peak memory %d symbolic, %d numeric", name, sym.peak, num.peak)
			}
			for rank := range sym.clocks {
				if len(sym.breakdown[rank]) == 0 {
					t.Fatalf("%s rank %d: the symbolic pass recorded no stage", name, rank)
				}
				if sym.clocks[rank] != num.clocks[rank] {
					t.Errorf("%s rank %d: clock %016x symbolic, %016x numeric", name, rank, sym.clocks[rank], num.clocks[rank])
				}
				if len(sym.breakdown[rank]) != len(num.breakdown[rank]) {
					t.Errorf("%s rank %d: %d stages symbolic, %d numeric", name, rank, len(sym.breakdown[rank]), len(num.breakdown[rank]))
				}
				for stage, v := range sym.breakdown[rank] {
					if w, ok := num.breakdown[rank][stage]; !ok || v != w {
						t.Errorf("%s rank %d: stage %s %016x symbolic, %016x numeric", name, rank, stage, v, w)
					}
				}
			}
		}
	}
}

// TestBackwardRejectsUnusableState: a backward handed dOut over a forward
// state captured symbolically (a forward handed no x) fails every rank on
// entry, on every transport, with a typed *moe.OptionError{Opt: "dOut"}
// that errors.As finds through Cluster.Run; so does a backward with no
// state.
func TestBackwardRejectsUnusableState(t *testing.T) {
	const world, s = 8, 16
	cfg := moe.Config{NumExperts: 16, TopK: 4, HModel: 8, HFFN: 4, CapacityFactor: 1.25, BytesPerElem: 2}
	optionError := func(err error, opt string) bool {
		var oe *moe.OptionError
		return errors.As(err, &oe) && oe.Opt == opt
	}
	for _, kind := range Kinds() {
		c := simrt.NewCluster(topology.Frontier(), world, 3)
		l := New(kind, c, c.WorldGroup(), cfg)
		err := c.Run(func(r *simrt.Rank) error {
			rng := tensor.NewRNG(900 + uint64(r.ID))
			routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.5)
			res := l.Forward(r, s, nil, routing, nil, rng, moe.PipelineOpts{SaveForBackward: true})
			params := moe.NewExpertParams(rng, cfg.NumExperts/world, cfg.HModel, cfg.HFFN)
			res.State.Backward(r, tensor.New(s, cfg.HModel), params, moe.PipelineOpts{})
			return nil
		})
		if !optionError(err, "dOut") {
			t.Errorf("%v: dOut handed to a symbolic state: want *moe.OptionError{Opt: dOut}, got %v", kind, err)
		}
	}

	c := simrt.NewCluster(topology.Frontier(), world, 3)
	g := c.WorldGroup()
	d := rbd.NewDispatcher(c, g, cfg)
	for name, backward := range map[string]func(r *simrt.Rank){
		"moe.PFTBackward":    func(r *simrt.Rank) { moe.PFTBackward(r, g, cfg, nil, nil, nil, moe.PipelineOpts{}) },
		"moe.PaddedBackward": func(r *simrt.Rank) { moe.PaddedBackward(r, g, cfg, nil, nil, nil, moe.PipelineOpts{}) },
		"rbd.Backward":       func(r *simrt.Rank) { rbd.Backward(r, d, cfg, nil, nil, nil, moe.PipelineOpts{}) },
	} {
		err := c.Run(func(r *simrt.Rank) error {
			backward(r)
			return nil
		})
		if !optionError(err, "SaveForBackward") {
			t.Errorf("%s with no forward state: want *moe.OptionError{Opt: SaveForBackward}, got %v", name, err)
		}
	}
}
