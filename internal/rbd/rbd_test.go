package rbd

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"xmoe/internal/kernels"
	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

func rbdConfig(e, k int) moe.Config {
	return moe.Config{
		NumExperts:     e,
		TopK:           k,
		HModel:         10,
		HFFN:           6,
		CapacityFactor: 100, // effectively no dropping for equivalence tests
		BytesPerElem:   2,
	}
}

func newCluster(n int) *simrt.Cluster {
	c := simrt.NewCluster(topology.Frontier(), n, 123)
	c.Net.DisableCongestion = true
	return c
}

func expertWeights(e, h, f int) (*tensor.Tensor, *tensor.Tensor) {
	rng := tensor.NewRNG(uint64(2000 + e))
	return tensor.Randn(rng, 0.05, h, f), tensor.Randn(rng, 0.05, f, h)
}

// runRBDLayer executes a full RBD MoE layer numerically on every rank and
// returns each rank's output.
func runRBDLayer(t *testing.T, c *simrt.Cluster, cfg moe.Config, s int, seedBase uint64) map[int]*tensor.Tensor {
	t.Helper()
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	outs := map[int]*tensor.Tensor{}
	var mu sync.Mutex
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(seedBase + uint64(r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.7)
		pft := moe.BuildPFT(routing, cfg.NumExperts, cfg.Capacity(s), moe.DropByCapacityWeight)
		dispIn := kernels.Gather(x, pft.TokenIDs)

		pilotRNG := tensor.NewRNG(7777 + uint64(r.ID))
		st, expertIn := dispatchOnly(d, r, s, pft, dispIn, pilotRNG, moe.PipelineOpts{})

		me := g.IndexOf(r.ID)
		w1 := make([]*tensor.Tensor, d.EPR)
		w2 := make([]*tensor.Tensor, d.EPR)
		for le := 0; le < d.EPR; le++ {
			w1[le], w2[le] = expertWeights(me*d.EPR+le, cfg.HModel, cfg.HFFN)
		}
		interm := kernels.SequentialGEMM(expertIn, st.RowsPerLE, w1)
		tensor.GeLU(interm)
		expertOut := kernels.SequentialGEMM(interm, st.RowsPerLE, w2)

		out := st.combine(r, expertOut)
		mu.Lock()
		outs[r.ID] = out
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// referenceLayer computes the expected output for rank using the same
// deterministic seeds as runRBDLayer.
func referenceLayer(rankID int, cfg moe.Config, s int, seedBase uint64) *tensor.Tensor {
	rng := tensor.NewRNG(seedBase + uint64(rankID))
	x := tensor.Randn(rng, 1, s, cfg.HModel)
	routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.7)
	pft := moe.BuildPFT(routing, cfg.NumExperts, cfg.Capacity(s), moe.DropByCapacityWeight)
	out := tensor.New(s, cfg.HModel)
	for i := range pft.TokenIDs {
		tok, e, w := pft.TokenIDs[i], pft.ExpertIDs[i], pft.CombineWeights[i]
		w1, w2 := expertWeights(e, cfg.HModel, cfg.HFFN)
		xi := tensor.FromSlice(x.Row(tok), 1, cfg.HModel)
		hid := tensor.MatMul(xi, w1)
		tensor.GeLU(hid)
		y := tensor.MatMul(hid, w2)
		dst := out.Row(tok)
		for j, v := range y.Data {
			dst[j] += w * v
		}
	}
	return out
}

func TestRBDLayerMatchesReference(t *testing.T) {
	// 16 ranks = 2 Frontier nodes; 32 experts, k=6 gives heavy node-level
	// redundancy, exercising pilots + replicas on every rank.
	cfg := rbdConfig(32, 6)
	const s, seed = 20, 31000
	c := newCluster(16)
	outs := runRBDLayer(t, c, cfg, s, seed)
	for rank, out := range outs {
		want := referenceLayer(rank, cfg, s, seed)
		if out == nil {
			t.Fatalf("rank %d: nil output", rank)
		}
		if !out.Equal(want, 1e-3) {
			t.Fatalf("rank %d: RBD output differs from reference", rank)
		}
	}
}

func TestRBDSingleNodeStillCorrect(t *testing.T) {
	// All 8 ranks share one node: every exchange is intra-node but the
	// pilot/replica machinery must still reproduce the exact output.
	cfg := rbdConfig(16, 4)
	outs := runRBDLayer(t, newCluster(8), cfg, 12, 555)
	for rank, out := range outs {
		want := referenceLayer(rank, cfg, 12, 555)
		if !out.Equal(want, 1e-3) {
			t.Fatalf("rank %d differs", rank)
		}
	}
}

func TestRBDTopK1NoReplicas(t *testing.T) {
	// k=1 cannot produce redundancy; RBD must degrade gracefully.
	cfg := rbdConfig(16, 1)
	outs := runRBDLayer(t, newCluster(16), cfg, 16, 909)
	for rank, out := range outs {
		want := referenceLayer(rank, cfg, 16, 909)
		if !out.Equal(want, 1e-3) {
			t.Fatalf("rank %d differs", rank)
		}
	}
}

func TestRBDExpertInputsMatchPlainDispatch(t *testing.T) {
	// The multiset of rows each expert processes must be identical to
	// plain (non-RBD) dispatch: RBD only changes the transport.
	cfg := rbdConfig(16, 4)
	const s = 16
	c := newCluster(16)
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	type rowKey struct {
		expert int
		sig    string
	}
	counts := map[rowKey]int{}
	var mu sync.Mutex
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(808 + uint64(r.ID))
		x := tensor.Randn(rng, 1, s, cfg.HModel)
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.5)
		pft := moe.BuildPFT(routing, cfg.NumExperts, 0, moe.DropByCapacityWeight)
		dispIn := kernels.Gather(x, pft.TokenIDs)

		// Expected rows (what plain dispatch delivers): every (token,
		// expert) assignment, keyed by content.
		mu.Lock()
		for i := range pft.TokenIDs {
			sig := fmt.Sprintf("%.4f:%.4f", dispIn.At(i, 0), dispIn.At(i, 1))
			counts[rowKey{pft.ExpertIDs[i], sig}]++
		}
		mu.Unlock()

		st, expertIn := dispatchOnly(d, r, s, pft, dispIn, tensor.NewRNG(99+uint64(r.ID)), moe.PipelineOpts{})
		me := g.IndexOf(r.ID)
		mu.Lock()
		row := 0
		for le := range st.RowsPerLE {
			for i := 0; i < st.RowsPerLE[le]; i++ {
				sig := fmt.Sprintf("%.4f:%.4f", expertIn.At(row, 0), expertIn.At(row, 1))
				counts[rowKey{me*d.EPR + le, sig}]--
				row++
			}
		}
		mu.Unlock()
		// Drain the combine-side collectives so all ranks stay in step.
		expertOut := expertIn.Clone()
		st.combine(r, expertOut)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range counts {
		if v != 0 {
			t.Fatalf("expert %d row multiset mismatch (key %q count %d)", k.expert, k.sig, v)
		}
	}
}

// TestRBDReducesInterNodeDispatchTime reproduces the Fig. 12 effect at
// symbolic scale: 32 ranks = 4 Frontier nodes, 256 experts, k=8 (measured
// redundancy ~54.8%), realistic row size (H=2048, bf16). RBD's S1
// (pilots-only inter-node) + S2 (intra-node replicas) must beat the plain
// dispatch all-to-all that ships every redundant copy across nodes.
func TestRBDReducesInterNodeDispatchTime(t *testing.T) {
	cfg := moe.Config{NumExperts: 256, TopK: 8, HModel: 2048, HFFN: 1024, CapacityFactor: 100, BytesPerElem: 2}
	const s = 512

	plain := newCluster(32)
	gP := plain.WorldGroup()
	ranksPlain, err := plain.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(4242 + uint64(r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0)
		moe.PFTForward(r, gP, cfg, s, nil, routing, nil, moe.PipelineOpts{})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	withRBD := newCluster(32)
	gR := withRBD.WorldGroup()
	d := NewDispatcher(withRBD, gR, cfg)
	ranksRBD, err := withRBD.RunCollect(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(4242 + uint64(r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0)
		pft := moe.BuildPFT(routing, cfg.NumExperts, 0, moe.DropByCapacityWeight)
		st, _ := dispatchOnly(d, r, s, pft, nil, tensor.NewRNG(1+uint64(r.ID)), moe.PipelineOpts{})
		st.combine(r, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var plainA2A, rbdS1, rbdS2 float64
	for i := range ranksPlain {
		plainA2A += ranksPlain[i].Trace.Total(moe.StageDispatchA2A)
		rbdS1 += ranksRBD[i].Trace.Total(StageS1A2A)
		rbdS2 += ranksRBD[i].Trace.Total(StageS2A2A)
	}
	if rbdS1 >= plainA2A {
		t.Fatalf("RBD S1 a2a (%.4fs) should beat plain dispatch a2a (%.4fs)", rbdS1, plainA2A)
	}
	if rbdS1+rbdS2 >= plainA2A {
		t.Fatalf("RBD total dispatch comms (%.4fs) should beat plain (%.4fs)", rbdS1+rbdS2, plainA2A)
	}
}

func TestAnalyzeRedundancy(t *testing.T) {
	// 2 tokens, k=3. Token 0: experts on nodes {0,0,1} -> 1 redundant.
	// Token 1: experts on nodes {1,1,1} -> 2 redundant.
	rt := moe.Routing{
		S:       2,
		Experts: []int32{0, 1, 4, 4, 5, 6},
		Weights: []float32{0.3, 0.3, 0.3, 0.3, 0.3, 0.3},
	}
	nodeOf := func(e int) int { return e / 4 }
	red := AnalyzeRedundancy(rt, nodeOf, 0)
	if red.Total != 6 || red.Redundant != 3 {
		t.Fatalf("redundancy = %+v, want total 6 redundant 3", red)
	}
	if math.Abs(red.Rate()-0.5) > 1e-9 {
		t.Fatalf("rate = %f", red.Rate())
	}
	// Inter-node copies: token 0 sends 1 copy to node 1 (+2 local);
	// token 1 sends 3 copies to node 1. Source node 0 => 4 inter-node.
	if red.InterNode != 4 {
		t.Fatalf("InterNode = %d, want 4", red.InterNode)
	}
	// Pilots crossing nodes: token 0 -> node 1 (1 pilot); token 1 -> node
	// 1 (1 pilot). 2 total.
	if red.PilotInter != 2 {
		t.Fatalf("PilotInter = %d, want 2", red.PilotInter)
	}
}

// analyzeRedundancyRef is AnalyzeRedundancy as it was written with a set
// of seen nodes per token: the reference the per-token scan is held to.
func analyzeRedundancyRef(rt moe.Routing, nodeOfExpert func(int) int, srcNode int) Redundancy {
	var red Redundancy
	k := rt.K()
	for t := 0; t < rt.S; t++ {
		nodesSeen := map[int]bool{}
		for _, e := range rt.Experts[t*k : (t+1)*k] {
			red.Total++
			node := nodeOfExpert(int(e))
			if node != srcNode {
				red.InterNode++
			}
			if nodesSeen[node] {
				red.Redundant++
			} else {
				nodesSeen[node] = true
				if node != srcNode {
					red.PilotInter++
				}
			}
		}
	}
	return red
}

// redundancyMatchesRef compares AnalyzeRedundancy with the reference.
func redundancyMatchesRef(rt moe.Routing, nodeOfExpert func(int) int, srcNode int) error {
	got, want := AnalyzeRedundancy(rt, nodeOfExpert, srcNode), analyzeRedundancyRef(rt, nodeOfExpert, srcNode)
	if got != want {
		return fmt.Errorf("S=%d K=%d src node %d: AnalyzeRedundancy %+v, reference %+v", rt.S, rt.K(), srcNode, got, want)
	}
	return nil
}

// TestAnalyzeRedundancyMatchesReference runs the Fig. 4 shapes (256
// experts, k 8, block placement over EP/8 nodes, uniform routing as the
// figure draws it, and skewed) from an off-node and an on-node source.
// FuzzRBDGeometry's cases make the same comparison per rank.
func TestAnalyzeRedundancyMatchesReference(t *testing.T) {
	const e, k = 256, 8
	for _, ep := range []int{16, 32, 64, 128, 256} {
		eprNode := e / (ep / 8)
		nodeOf := func(ex int) int { return ex / eprNode }
		for _, skew := range []float64{0, 0.6} {
			rt := moe.SyntheticRouting(tensor.NewRNG(uint64(ep)), 600, e, k, skew)
			for _, src := range []int{-1, 0} {
				if err := redundancyMatchesRef(rt, nodeOf, src); err != nil {
					t.Errorf("EP=%d skew %.1f: %v", ep, skew, err)
				}
			}
		}
	}
}

func TestExpectedRedundancyMatchesPaperFig4(t *testing.T) {
	// The paper's Fig. 4 values for 256 experts, k=8, 8 GPUs/node.
	cases := []struct {
		epSize int
		want   float64
	}{
		{16, 0.751}, {32, 0.548}, {64, 0.338}, {128, 0.185}, {256, 0.092},
	}
	for _, c := range cases {
		nodes := c.epSize / 8
		got := ExpectedRedundancyRate(256, 8, nodes)
		if math.Abs(got-c.want) > 0.012 {
			t.Errorf("EP=%d: expected redundancy %.3f, paper %.3f", c.epSize, got, c.want)
		}
	}
}

func TestExpectedRedundancyEdgeCases(t *testing.T) {
	if ExpectedRedundancyRate(64, 1, 8) != 0 {
		t.Fatal("k=1 has no redundancy")
	}
	if got := ExpectedRedundancyRate(64, 8, 1); math.Abs(got-(1-1.0/8)) > 1e-9 {
		t.Fatalf("single node: all but one copy redundant, got %f", got)
	}
	if ExpectedRedundancyRate(64, 0, 4) != 0 || ExpectedRedundancyRate(64, 4, 0) != 0 {
		t.Fatal("degenerate parameters must return 0")
	}
}

func TestQuickAnalyzeVsExpectedRedundancy(t *testing.T) {
	// Measured redundancy on uniform synthetic routing must track the
	// closed form within sampling noise.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		nodes := 2 + rng.Intn(6)
		eprNode := 8 // experts per node
		e := nodes * eprNode
		k := 1 + rng.Intn(6)
		if k > e {
			k = e
		}
		rt := moe.SyntheticRouting(rng, 800, e, k, 0)
		red := AnalyzeRedundancy(rt, func(ex int) int { return ex / eprNode }, -1)
		want := ExpectedRedundancyRate(e, k, nodes)
		return math.Abs(red.Rate()-want) < 0.08
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRBDPilotInvariants(t *testing.T) {
	// For any routing: pilots + replicas = all assignments, and pilot
	// inter-node copies are at most one per (token, node).
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		nodes := 1 + rng.Intn(4)
		e := nodes * 8
		k := 1 + rng.Intn(min(6, e))
		s := 1 + rng.Intn(40)
		rt := moe.SyntheticRouting(rng, s, e, k, rng.Float64())
		nodeOf := func(ex int) int { return ex / 8 }
		red := AnalyzeRedundancy(rt, nodeOf, 0)
		if red.Total != s*k {
			return false
		}
		// Count distinct (token, node) pairs.
		distinct := map[[2]int]bool{}
		for tok := 0; tok < s; tok++ {
			for _, ex := range rt.Experts[tok*k : (tok+1)*k] {
				distinct[[2]int{tok, nodeOf(int(ex))}] = true
			}
		}
		return red.Total-red.Redundant == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherRejectsIndivisibleExperts(t *testing.T) {
	c := newCluster(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDispatcher(c, c.WorldGroup(), rbdConfig(8, 2))
}

func TestDispatcherNodeGroups(t *testing.T) {
	c := newCluster(16) // 2 nodes
	d := NewDispatcher(c, c.WorldGroup(), rbdConfig(16, 2))
	if len(d.nodeGroups) != 2 {
		t.Fatalf("node groups = %d, want 2", len(d.nodeGroups))
	}
	for node, g := range d.nodeGroups {
		if g.Size() != 8 {
			t.Fatalf("node %d group size %d, want 8", node, g.Size())
		}
	}
	if d.NodeOfExpert(0) != 0 || d.NodeOfExpert(15) != 1 {
		t.Fatal("NodeOfExpert mapping wrong")
	}
	var _ = sort.IntsAreSorted
}

// TestStageReplicasOrder pins the Stage-2 send layout of a numeric pass —
// the only one that places rows: per destination slot the rows are
// expert-ascending and, within an expert, in (src, ri) arrival order, each
// row carrying its own metadata and absolute pilot row, and the part's
// per-expert counts are its rows'. k = 8 over 2 nodes makes many replicas
// of different sources collide on the same expert, the case a non-stable
// grouping would reorder.
func TestStageReplicasOrder(t *testing.T) {
	cfg := rbdConfig(32, 8)
	const s = 48
	c := newCluster(16)
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	var collisions atomic.Int64
	err := c.Run(func(r *simrt.Rank) error {
		rt := moe.SyntheticRouting(tensor.NewRNG(900+uint64(r.ID)), s, cfg.NumExperts, cfg.TopK, 0.7)
		pft := moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(s), moe.DropByCapacityWeight)
		st := pilotsOnly(d, r, pft, tensor.New(pft.B(), cfg.HModel), tensor.NewRNG(50+uint64(r.ID)), moe.PipelineOpts{})
		parts, _ := d.stageReplicas(r, st)

		members := d.nodeMembers[d.nodeOfMember[g.IndexOf(r.ID)]]
		incoming, staged := 0, 0
		for _, m := range st.recvMetas {
			incoming += len(m.replicas)
		}
		for slot, part := range parts {
			meta := part.Meta.(s2Meta).replicas
			sent := st.s2SentByMember[slot]
			if len(meta) != len(sent) || len(sent) != st.s2SentCount[slot] {
				return fmt.Errorf("slot %d: %d metadata rows, %d merge targets, %d counted", slot, len(meta), len(sent), st.s2SentCount[slot])
			}
			perLE := make([]int, d.EPR)
			for _, rm := range meta {
				perLE[int(rm.expert)-members[slot]*d.EPR]++
			}
			if !slices.Equal(perLE, part.Meta.(s2Meta).perLE) {
				return fmt.Errorf("slot %d: per-expert counts %v, its rows %v", slot, part.Meta.(s2Meta).perLE, perLE)
			}
			staged += len(meta)
			for pos, rm := range meta {
				sr := sent[pos]
				if int(rm.expert)/d.EPR != members[slot] {
					return fmt.Errorf("slot %d pos %d: expert %d belongs to member %d", slot, pos, rm.expert, int(rm.expert)/d.EPR)
				}
				if rm != st.recvMetas[sr.src].replicas[sr.ri] || sr.weight != rm.weight ||
					int(sr.pilotAbs) != st.pilotPartOff[sr.src]+int(rm.pilotRel) {
					return fmt.Errorf("slot %d pos %d: row does not carry replica (src %d, ri %d)", slot, pos, sr.src, sr.ri)
				}
				if pos == 0 {
					continue
				}
				prev, psr := meta[pos-1], sent[pos-1]
				switch {
				case rm.expert < prev.expert:
					return fmt.Errorf("slot %d pos %d: expert %d after %d", slot, pos, rm.expert, prev.expert)
				case rm.expert > prev.expert:
				case sr.src < psr.src || (sr.src == psr.src && sr.ri <= psr.ri):
					return fmt.Errorf("slot %d pos %d expert %d: (src %d, ri %d) after (src %d, ri %d)",
						slot, pos, rm.expert, sr.src, sr.ri, psr.src, psr.ri)
				default:
					collisions.Add(1)
				}
			}
		}
		if staged != incoming {
			return fmt.Errorf("staged %d of %d incoming replicas", staged, incoming)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if collisions.Load() < 1000 {
		t.Fatalf("only %d same-expert neighbours: the routing does not exercise arrival order", collisions.Load())
	}
}

// dispatchOnly starts rank r's exchange for its s tokens and runs RBD
// stages 0-2 on their own, outside the layer body, returning the state the
// combine continues from and (numeric) the expert input in the State
// layout.
func dispatchOnly(d *Dispatcher, r *simrt.Rank, s int, pft *moe.PFT, dispIn *tensor.Tensor, rng *tensor.RNG, opts moe.PipelineOpts) (*State, *tensor.Tensor) {
	st := d.newState(rng, opts)
	st.s = s
	return st, st.dispatch(r, pft, dispIn, nil)
}

// pilotsOnly runs RBD stages 0-1 for rank r and returns the state Stage 2
// would continue from.
func pilotsOnly(d *Dispatcher, r *simrt.Rank, pft *moe.PFT, dispIn *tensor.Tensor, rng *tensor.RNG, opts moe.PipelineOpts) *State {
	st := d.newState(rng, opts)
	st.dispatchPilots(r, pft, dispIn)
	return st
}
