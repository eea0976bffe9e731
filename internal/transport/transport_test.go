package transport

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

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
		{"zero caps entry", RBD, moe.PipelineOpts{CapacityByExpert: make([]int, 8)}, "CapacityByExpert", "must be >= 1"},
	}
	c := simrt.NewCluster(topology.Frontier(), 8, 1)
	for _, tc := range cases {
		for _, check := range []func(moe.PipelineOpts) error{
			func(o moe.PipelineOpts) error { return tc.kind.Check(cfg, o) },
			New(tc.kind, c, c.WorldGroup(), cfg).Check,
		} {
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

// layerBits is what one numeric fwd+bwd leaves behind on every rank.
type layerBits struct {
	clocks []uint64
	out    [][]float32
	dx     [][]float32
	dw     [][][]float32 // [rank][2*le + {0,1}]
	dcw    [][]float32
	recv   []int
}

// runNumeric executes one numeric fwd+bwd of kind at chunk count c on a
// fresh two-node cluster with deterministic inputs, through the Layer when
// viaLayer is set and through the pipelines' own entry points otherwise.
func runNumeric(t *testing.T, kind Kind, chunks int, viaLayer bool) layerBits {
	t.Helper()
	const world, s = 16, 24
	cfg := moe.Config{NumExperts: 32, TopK: 4, HModel: 12, HFFN: 8, CapacityFactor: 1.25, BytesPerElem: 2}
	c := simrt.NewCluster(topology.Frontier(), world, 5)
	c.Net.DisableCongestion = true
	g := c.WorldGroup()
	var layer Layer
	var d *rbd.Dispatcher
	if viaLayer {
		layer = New(kind, c, g, cfg)
	} else if kind == RBD {
		d = rbd.NewDispatcher(c, g, cfg)
	}
	drop := moe.DropByCapacityWeight
	if kind == Padded {
		drop = moe.DropNegativeThenPosition
	}
	got := layerBits{out: make([][]float32, world), dx: make([][]float32, world),
		dw: make([][][]float32, world), dcw: make([][]float32, world), recv: make([]int, world)}
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(8100 + uint64(r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		dOut := tensor.Randn(rng, 0.3, s, cfg.HModel)
		params := moe.NewExpertParams(tensor.NewRNG(77+uint64(r.ID)), cfg.NumExperts/world, cfg.HModel, cfg.HFFN)
		pilots := tensor.NewRNG(91 + uint64(r.ID))
		fwd := moe.PipelineOpts{Numeric: true, DropPolicy: drop, SaveForBackward: true, OverlapChunks: chunks}
		bwd := moe.PipelineOpts{Numeric: true, DropPolicy: drop, OverlapChunks: chunks}
		var res moe.LayerResult
		var grads moe.BackwardResult
		switch {
		case viaLayer:
			var saved Saved
			res, saved = layer.Forward(r, s, x, routing, params, pilots, fwd)
			grads = saved.Backward(r, dOut, params, bwd)
		case kind == PFT:
			res = moe.PFTForward(r, g, cfg, s, x, routing, params, fwd)
			grads = moe.PFTBackward(r, g, cfg, res.State, dOut, params, bwd)
		case kind == Padded:
			res = moe.PaddedForward(r, g, cfg, s, x, routing, params, fwd)
			grads = moe.PaddedBackward(r, g, cfg, res.PaddedState, dOut, params, bwd)
		case kind == RBD:
			rres := rbd.Forward(r, d, cfg, s, x, routing, params, pilots, fwd)
			res, grads = rres.LayerResult, rbd.Backward(r, d, cfg, rres.State, dOut, params, bwd)
		}
		got.out[r.ID], got.dx[r.ID], got.dcw[r.ID] = res.Output.Data, grads.DX.Data, grads.DCombineWeights
		got.recv[r.ID] = res.RecvTokens
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

// TestLayerMatchesDirectCalls: the Layer adds nothing to and takes nothing
// from the pipelines it wraps — output, dX, every dW, the combine-weight
// gradients and every rank clock have equal bits through the Layer and
// through the direct calls, for all three kinds, blocking and chunked.
func TestLayerMatchesDirectCalls(t *testing.T) {
	for _, kind := range Kinds() {
		for _, chunks := range []int{1, 4} {
			direct := runNumeric(t, kind, chunks, false)
			via := runNumeric(t, kind, chunks, true)
			name := fmt.Sprintf("%v C=%d", kind, chunks)
			for rank := range direct.out {
				if direct.clocks[rank] != via.clocks[rank] {
					t.Errorf("%s rank %d: clock %016x direct, %016x via Layer", name, rank, direct.clocks[rank], via.clocks[rank])
				}
				if direct.recv[rank] != via.recv[rank] {
					t.Errorf("%s rank %d: RecvTokens %d direct, %d via Layer", name, rank, direct.recv[rank], via.recv[rank])
				}
				if len(direct.out[rank]) == 0 || len(direct.dx[rank]) == 0 || len(direct.dw[rank]) == 0 {
					t.Fatalf("%s rank %d: the direct run produced no tensors", name, rank)
				}
				if !sameBits(direct.out[rank], via.out[rank]) {
					t.Errorf("%s rank %d: output differs", name, rank)
				}
				if !sameBits(direct.dx[rank], via.dx[rank]) {
					t.Errorf("%s rank %d: dX differs", name, rank)
				}
				if !sameBits(direct.dcw[rank], via.dcw[rank]) {
					t.Errorf("%s rank %d: combine-weight gradients differ", name, rank)
				}
				for i := range direct.dw[rank] {
					if !sameBits(direct.dw[rank][i], via.dw[rank][i]) {
						t.Errorf("%s rank %d: dW[%d] differs", name, rank, i)
					}
				}
			}
		}
	}
}

// TestForwardWithoutSaveReturnsNilSaved: a forward that kept no state has
// nothing to reverse, and says so with a nil interface rather than a Saved
// whose Backward would dereference a nil state.
func TestForwardWithoutSaveReturnsNilSaved(t *testing.T) {
	cfg := moe.Config{NumExperts: 16, TopK: 2, HModel: 64, HFFN: 32, CapacityFactor: 1.25, BytesPerElem: 2}
	for _, kind := range Kinds() {
		c := simrt.NewCluster(topology.Frontier(), 8, 3)
		layer := New(kind, c, c.WorldGroup(), cfg)
		_, err := c.RunCollect(func(r *simrt.Rank) error {
			rt := moe.SyntheticRouting(tensor.NewRNG(uint64(r.ID)), 32, cfg.NumExperts, cfg.TopK, 0)
			if _, saved := layer.Forward(r, 32, nil, rt, nil, tensor.NewRNG(1), moe.PipelineOpts{}); saved != nil {
				return fmt.Errorf("%v: Forward without SaveForBackward returned a Saved", kind)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
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
// and trace breakdown, and the cluster's peak memory.
type priceBits struct {
	clocks    []uint64
	breakdown []map[string]uint64
	peak      int64
}

// runPriced executes one fwd+bwd of kind at chunk count c on a fresh
// two-node cluster, numeric or symbolic, over routing and pilot draws that
// do not depend on the mode.
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
	ranks, err := c.RunCollect(func(r *simrt.Rank) error {
		routing := moe.SyntheticRouting(tensor.NewRNG(8300+uint64(r.ID)), s, cfg.NumExperts, cfg.TopK, 0.6)
		var x, dOut *tensor.Tensor
		var params *moe.ExpertParams
		if numeric {
			rng := tensor.NewRNG(8400 + uint64(r.ID))
			x, dOut = tensor.Randn(rng, 1, s, cfg.HModel), tensor.Randn(rng, 0.3, s, cfg.HModel)
			params = moe.NewExpertParams(rng, cfg.NumExperts/world, cfg.HModel, cfg.HFFN)
		}
		fwd := moe.PipelineOpts{Numeric: numeric, DropPolicy: drop, SaveForBackward: true, OverlapChunks: chunks}
		bwd := moe.PipelineOpts{Numeric: numeric, DropPolicy: drop, OverlapChunks: chunks}
		_, saved := layer.Forward(r, s, x, routing, params, tensor.NewRNG(91+uint64(r.ID)), fwd)
		saved.Backward(r, dOut, params, bwd)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := priceBits{peak: c.PeakMemory()}
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
// memory, bit for bit — for every transport, blocking and chunked.
func TestSymbolicPricesLikeNumeric(t *testing.T) {
	for _, kind := range Kinds() {
		for _, chunks := range []int{1, 2, 4} {
			sym, num := runPriced(t, kind, chunks, false), runPriced(t, kind, chunks, true)
			name := fmt.Sprintf("%v C=%d", kind, chunks)
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
