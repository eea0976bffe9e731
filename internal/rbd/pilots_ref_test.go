package rbd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"xmoe/internal/kernels"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/tensor"
)

// pilotSel is what Stage 0 decides on one source rank: the pilots in send
// order, the Stage-1 metadata of each member's part, and the PFT entry of
// every replica announced to each member.
type pilotSel struct {
	pilotEntry   []int
	metas        []s1Meta
	replicaEntry [][]int
}

// selectPilotsRef is the pilot selection as Stage 0 made it before
// the streaming passes, kept as the reference they are held to: entries
// bucketed by token, each token's distinct destination nodes collected in
// first-seen (PFT) order, and one pilot drawn per (token, node) group in
// that order.
func selectPilotsRef(d *Dispatcher, pft *moe.PFT, policy moe.PilotPolicy, rng *tensor.RNG) pilotSel {
	p, b := d.EP.Size(), pft.B()
	numTokens := 0
	for _, t := range pft.TokenIDs {
		numTokens = max(numTokens, t+1)
	}
	byToken := kernels.GroupByDestination(pft.TokenIDs, numTokens)
	isPilot := make([]bool, b)
	pilotOf := make([]int, b) // replica entry -> pilot entry
	for t := 0; t < numTokens; t++ {
		ents := byToken.Sources(t)
		var entNode, nodes []int32
		for _, i := range ents {
			n := d.nodeOf[pft.ExpertIDs[i]]
			entNode = append(entNode, n)
			if !slices.Contains(nodes, n) {
				nodes = append(nodes, n)
			}
		}
		for _, n := range nodes {
			var grp []int
			for j, i := range ents {
				if entNode[j] == n {
					grp = append(grp, i)
				}
			}
			chosen := grp[0]
			if policy == moe.PilotRandom && len(grp) > 1 {
				chosen = grp[rng.Intn(len(grp))]
			}
			for _, i := range grp {
				isPilot[i] = chosen == i
				pilotOf[i] = chosen
			}
		}
	}

	sel := pilotSel{metas: make([]s1Meta, p), replicaEntry: make([][]int, p)}
	sendPos := make([]int, b)
	for dst := range sel.metas {
		sel.metas[dst].counts = make([]int, d.EPR)
		sel.metas[dst].weights = []float32{}
		sel.metas[dst].replicas = []replicaMeta{}
		sel.replicaEntry[dst] = []int{}
	}
	partStart := make([]int, p)
	for i := 0; i < b; i++ {
		if !isPilot[i] {
			continue
		}
		dst := pft.ExpertIDs[i] / d.EPR
		if len(sel.metas[dst].weights) == 0 {
			partStart[dst] = len(sel.pilotEntry)
		}
		sendPos[i] = len(sel.pilotEntry)
		sel.pilotEntry = append(sel.pilotEntry, i)
		sel.metas[dst].counts[pft.ExpertIDs[i]-dst*d.EPR]++
		sel.metas[dst].weights = append(sel.metas[dst].weights, pft.CombineWeights[i])
	}
	for i := 0; i < b; i++ {
		if isPilot[i] {
			continue
		}
		pe := pilotOf[i]
		dst := pft.ExpertIDs[pe] / d.EPR
		sel.metas[dst].replicas = append(sel.metas[dst].replicas, replicaMeta{
			pilotRel: int32(sendPos[pe] - partStart[dst]),
			expert:   int32(pft.ExpertIDs[i]),
			weight:   pft.CombineWeights[i],
		})
		sel.replicaEntry[dst] = append(sel.replicaEntry[dst], i)
	}
	return sel
}

// equal reports the first field in which two selections differ, weights
// compared by bit pattern.
func (got pilotSel) equal(want pilotSel) error {
	if !slices.Equal(got.pilotEntry, want.pilotEntry) {
		return fmt.Errorf("pilotEntry %v, reference %v", got.pilotEntry, want.pilotEntry)
	}
	if len(got.metas) != len(want.metas) || len(got.replicaEntry) != len(want.replicaEntry) {
		return fmt.Errorf("%d metas and %d replica lists, reference %d and %d",
			len(got.metas), len(got.replicaEntry), len(want.metas), len(want.replicaEntry))
	}
	for dst, m := range got.metas {
		w := want.metas[dst]
		if !slices.Equal(m.counts, w.counts) {
			return fmt.Errorf("member %d: counts %v, reference %v", dst, m.counts, w.counts)
		}
		if !slices.EqualFunc(m.weights, w.weights, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
			return fmt.Errorf("member %d: weights %v, reference %v", dst, m.weights, w.weights)
		}
		if !slices.EqualFunc(m.replicas, w.replicas, func(a, b replicaMeta) bool {
			return a.pilotRel == b.pilotRel && a.expert == b.expert && math.Float32bits(a.weight) == math.Float32bits(b.weight)
		}) {
			return fmt.Errorf("member %d: replicas %v, reference %v", dst, m.replicas, w.replicas)
		}
		if !slices.Equal(got.replicaEntry[dst], want.replicaEntry[dst]) {
			return fmt.Errorf("member %d: replica entries %v, reference %v", dst, got.replicaEntry[dst], want.replicaEntry[dst])
		}
	}
	return nil
}

// checkPilotsMatchRef runs selectPilots and the reference on one PFT from
// equal generators and compares them field for field, and the generators
// after: the same draws, in the same order. A symbolic selection from a
// third equal generator must make the numeric one's parts and counts.
func checkPilotsMatchRef(d *Dispatcher, pft *moe.PFT, policy moe.PilotPolicy, seed uint64) error {
	st, sym := &State{pft: pft}, &State{pft: pft}
	rng, refRNG, symRNG := tensor.NewRNG(seed), tensor.NewRNG(seed), tensor.NewRNG(seed)
	opts := moe.PipelineOpts{Numeric: true, SaveForBackward: true, PilotPolicy: policy}
	got := pilotSel{metas: d.selectPilots(st, rng, opts), pilotEntry: st.pilotEntry, replicaEntry: st.replicaEntry}
	if err := got.equal(selectPilotsRef(d, pft, policy, refRNG)); err != nil {
		return err
	}
	symMetas := d.selectPilots(sym, symRNG, moe.PipelineOpts{PilotPolicy: policy})
	if !slices.Equal(sym.partStart, st.partStart) || !slices.Equal(sym.pilotEntry, st.pilotEntry) {
		return fmt.Errorf("symbolic parts %v, numeric %v", sym.partStart, st.partStart)
	}
	for dst, m := range symMetas {
		w := got.metas[dst]
		if !slices.Equal(m.counts, w.counts) || !slices.Equal(m.repByKey, w.repByKey) || !slices.Equal(m.repCum, w.repCum) {
			return fmt.Errorf("member %d: symbolic counts %v, repByKey %v, repCum %v; numeric %v, %v, %v",
				dst, m.counts, m.repByKey, m.repCum, w.counts, w.repByKey, w.repCum)
		}
	}

	for dst, m := range got.metas {
		if lo, hi := st.partStart[dst], st.partStart[dst+1]; hi-lo != len(m.weights) {
			return fmt.Errorf("member %d: part [%d, %d) holds %d pilots", dst, lo, hi, len(m.weights))
		}
		if err := countsMatchRows(d, dst, m); err != nil {
			return err
		}
	}
	if a, b, c := rng.Uint64(), refRNG.Uint64(), symRNG.Uint64(); a != b || c != a {
		return fmt.Errorf("the generators part after the selection: %x, reference %x, symbolic %x", a, b, c)
	}
	return nil
}

// countsMatchRows checks a numeric part's counts against its rows: the
// metadata of member dst's part, whose repByKey must be the histogram of its
// replicas by key (expert - the node's first expert) and whose repCum the
// prefix count of its replicas by pilot row.
func countsMatchRows(d *Dispatcher, dst int, m s1Meta) error {
	byKey := make([]int32, d.nodeKeys(dst))
	cum := make([]int32, len(m.weights)+1)
	for _, rm := range m.replicas {
		byKey[int(rm.expert)-d.nodeLo[dst]]++
		cum[rm.pilotRel+1]++
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	if !slices.Equal(m.repByKey, byKey) {
		return fmt.Errorf("member %d: repByKey %v, its replicas %v", dst, m.repByKey, byKey)
	}
	if !slices.Equal(m.repCum, cum) {
		return fmt.Errorf("member %d: repCum %v, its replicas %v", dst, m.repCum, cum)
	}
	return nil
}

// TestPilotSelectionMatchesReference holds the streaming pilot selection
// to the per-token grouping it replaced, over one to eight nodes and an EP
// group that starts on the cluster's second node, both pilot policies,
// uniform to heavily skewed routing, and the one-expert and half-empty
// routing shapes.
func TestPilotSelectionMatchesReference(t *testing.T) {
	type group struct {
		name         string
		world, first int // cluster size and the group's first rank
		size         int
	}
	groups := []group{
		{"1 node", 8, 0, 8}, {"2 nodes", 16, 0, 16}, {"4 nodes", 32, 0, 32}, {"8 nodes", 64, 0, 64},
		{"nodes 1-2 of 4", 32, 8, 16},
	}
	const epr, k, s = 2, 6, 96
	for _, gr := range groups {
		c := newCluster(gr.world)
		ranks := make([]int, gr.size)
		for i := range ranks {
			ranks[i] = gr.first + i
		}
		cfg := moe.Config{NumExperts: gr.size * epr, TopK: k, HModel: 4, HFFN: 4, CapacityFactor: 1.25, BytesPerElem: 2}
		d := NewDispatcher(c, c.NewGroup(ranks), cfg)
		for _, policy := range []moe.PilotPolicy{moe.PilotRandom, moe.PilotFirstExpert} {
			for _, shape := range []int{geomSynthetic, geomOneExpert, geomHalfEmpty} {
				for _, skew := range []float64{0, 0.6, 3} {
					kk, drawn := k, cfg.NumExperts
					switch shape {
					case geomOneExpert:
						kk, drawn = 1, 1
					case geomHalfEmpty:
						drawn /= 2
					}
					for seed := uint64(1); seed <= 2; seed++ {
						rt := moe.SyntheticRouting(tensor.NewRNG(seed*977+uint64(gr.size)), s, drawn, kk, skew)
						pft := moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(s), moe.DropByCapacityWeight)
						if err := checkPilotsMatchRef(d, pft, policy, seed); err != nil {
							t.Fatalf("%s, policy %d, shape %d, skew %.1f, seed %d: %v", gr.name, policy, shape, skew, seed, err)
						}
					}
				}
			}
		}
	}

	// The layer workloads' geometry: the Large model's 256 experts, k = 8,
	// at EP = 64 over eight nodes, 4096 tokens.
	sh := model.Large()
	cfg := moe.Config{NumExperts: sh.NumExperts, TopK: sh.TopK, HModel: 4, HFFN: 4, CapacityFactor: 1.25, BytesPerElem: 2}
	c := newCluster(64)
	d := NewDispatcher(c, c.WorldGroup(), cfg)
	for _, policy := range []moe.PilotPolicy{moe.PilotRandom, moe.PilotFirstExpert} {
		for _, skew := range []float64{0, 0.6} {
			rt := moe.SyntheticRouting(tensor.NewRNG(42), sh.SeqLen, cfg.NumExperts, cfg.TopK, skew)
			pft := moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(sh.SeqLen), moe.DropByCapacityWeight)
			if err := checkPilotsMatchRef(d, pft, policy, 3); err != nil {
				t.Fatalf("Large EP 64, policy %d, skew %.1f: %v", policy, skew, err)
			}
		}
	}
}

// TestNodeSlotsFollowFirstExperts pins what the pilot selection's visiting
// order rests on, for every EP group shape the parallel plans build
// (consecutive and strided, one to eight nodes): node slots number the
// nodes densely in order of their first expert, and every node hosts one
// contiguous expert range, so a token's expert-ascending entries reach its
// nodes in ascending slot order.
func TestNodeSlotsFollowFirstExperts(t *testing.T) {
	shapes := 0
	for _, world := range []int{8, 16, 32, 64} {
		c := newCluster(world)
		for ep := 1; ep <= world; ep *= 2 {
			for _, placement := range []parallel.Placement{parallel.EPFirst, parallel.DPFirst} {
				plan := parallel.Plan{World: world, TP: 1, EP: ep, Placement: placement}
				for _, ranks := range plan.EPGroups() {
					d := NewDispatcher(c, c.NewGroup(ranks), moe.Config{NumExperts: 2 * ep, TopK: 2})
					if err := nodeSlotsFollowFirstExperts(d); err != nil {
						t.Fatalf("world %d EP %d %v group %v: %v", world, ep, placement, ranks, err)
					}
					shapes++
				}
			}
		}
	}
	if shapes < 100 {
		t.Fatalf("only %d group shapes checked", shapes)
	}
}

// nodeSlotsFollowFirstExperts checks one dispatcher's node slots against
// the node order its experts' first appearances give.
func nodeSlotsFollowFirstExperts(d *Dispatcher) error {
	var firstSeen []int32 // nodes in order of their first expert
	for e := range d.nodeSlot {
		n := d.nodeOf[e]
		at := slices.Index(firstSeen, n)
		switch {
		case at < 0:
			at = len(firstSeen)
			firstSeen = append(firstSeen, n)
		case at != len(firstSeen)-1:
			return fmt.Errorf("expert %d returns to node %d after node %d", e, n, firstSeen[len(firstSeen)-1])
		}
		if int(d.nodeSlot[e]) != at {
			return fmt.Errorf("expert %d on node %d has slot %d, its node is the %d-th by first expert", e, n, d.nodeSlot[e], at)
		}
	}
	if d.nodes != len(firstSeen) || d.nodes != len(d.nodeMembers) {
		return fmt.Errorf("%d slots for %d nodes by first expert and %d node groups", d.nodes, len(firstSeen), len(d.nodeMembers))
	}
	return nil
}
