package rbd

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/netsim"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// geomCase is one dispatch-geometry input, flat enough to double as the
// fuzz corpus entry: a cluster size, a layer shape and a routing recipe.
type geomCase struct {
	seed uint64
	// twoNodes picks world 16 (two Frontier nodes) over world 8 (one).
	twoNodes bool
	// epr is experts per rank, s tokens per rank.
	epr, k, s int
	// skew10 and cf10 are the SyntheticRouting exponent and the capacity
	// factor, times ten.
	skew10, cf10 int
	// shape reworks the synthetic routing into a degenerate one.
	shape       int
	firstExpert bool // moe.PilotFirstExpert instead of moe.PilotRandom
}

const (
	geomSynthetic    = iota
	geomOneExpert    // every token to expert 0 (k forced to 1)
	geomHalfEmpty    // only the lower half of the experts is ever chosen
	geomEqualWeights // all combine weights equal: the tie path
	numGeomShapes
)

// interNodeCounter sums the bytes every all-to-all-v of a cluster moved
// across node boundaries.
type interNodeCounter struct {
	netsim.CostEngine
	mu    sync.Mutex
	bytes int64
}

func (e *interNodeCounter) AlltoAllV(ranks []int, send [][]int64) netsim.Cost {
	c := e.CostEngine.AlltoAllV(ranks, send)
	e.mu.Lock()
	e.bytes += c.InterNodeBytes()
	e.mu.Unlock()
	return c
}

// checkGeometry runs the numeric RBD forward of the case at one chunk and
// at three and asserts what the dispatch geometry promises, whatever the
// routing: every kept PFT entry travels as exactly one pilot or one
// replica, every expert receives exactly the rows the PFTs hold for it,
// the row map is a permutation of the received pilot rows and the Stage-2
// (part, pos) pairs in the State layout, nothing but pilot rows and their
// metadata crosses a node boundary, the output does not depend on the
// chunk count by a bit, and it is the flat PFT pipeline's output. Each
// rank's AnalyzeRedundancy also matches the per-token-set reference, and
// its pilot selection the per-token grouping reference. The counts every
// charge reads are the rows': each part's repByKey and repCum, the Stage-2
// counts, and the merge offsets mergesByChunk takes from repCum, at every
// chunk count from 1 to 8 whatever the forward's. The case's symbolic
// forward, which keeps counts only, must count what the numeric one does:
// the parts, each part's counts, repByKey and repCum, the Stage-2 counts
// and the merge offsets at chunk counts 1 to 8. The package's TestMain
// turns simrt.PoisonReleased on, so every release poisons what it returns,
// the Stage-0 scratch sets included, and a read after a release shows as a
// difference or an index out of range.
func checkGeometry(t *testing.T, gc geomCase) {
	t.Helper()
	world := 8
	if gc.twoNodes {
		world = 16
	}
	k, drawn := gc.k, world*gc.epr
	switch gc.shape {
	case geomOneExpert:
		k, drawn = 1, 1
	case geomHalfEmpty:
		drawn = max(drawn/2, k)
	}
	cfg := moe.Config{NumExperts: world * gc.epr, TopK: k, HModel: 6, HFFN: 4,
		CapacityFactor: float64(gc.cf10) / 10, BytesPerElem: 2}
	rowBytes := int64(cfg.HModel * cfg.BytesPerElem)
	inputs := func(r *simrt.Rank) (*tensor.Tensor, moe.Routing, *moe.ExpertParams) {
		rng := tensor.NewRNG(gc.seed + 31*uint64(r.ID))
		rt := moe.SyntheticRouting(rng, gc.s, drawn, k, float64(gc.skew10)/10)
		if gc.shape == geomEqualWeights {
			for i := range rt.Weights {
				rt.Weights[i] = 0.25
			}
		}
		params := &moe.ExpertParams{W1: make([]*tensor.Tensor, gc.epr), W2: make([]*tensor.Tensor, gc.epr)}
		for le := range params.W1 {
			params.W1[le], params.W2[le] = expertWeights(r.ID*gc.epr+le, cfg.HModel, cfg.HFFN)
		}
		return tensor.Randn(rng, 1, gc.s, cfg.HModel), rt, params
	}
	opts := moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight, SaveForBackward: true}
	if gc.firstExpert {
		opts.PilotPolicy = moe.PilotFirstExpert
	}

	run := func(chunks int) ([]*tensor.Tensor, []*State) {
		c := newCluster(world)
		counter := &interNodeCounter{CostEngine: c.CostEngine()}
		c.Engine = counter
		d := NewDispatcher(c, c.WorldGroup(), cfg)
		outs := make([]*tensor.Tensor, world)
		states := make([]*State, world)
		o := opts
		o.OverlapChunks = chunks
		if err := c.Run(func(r *simrt.Rank) error {
			x, rt, params := inputs(r)
			if err := redundancyMatchesRef(rt, d.NodeOfExpert, d.nodeOfMember[r.ID]); err != nil {
				return err
			}
			res := Forward(r, d, cfg, gc.s, x, rt, params, tensor.NewRNG(gc.seed^uint64(r.ID)), o)
			outs[r.ID], states[r.ID] = res.Output, res.State.Ex.(*State)
			return nil
		}); err != nil {
			t.Fatalf("%+v C=%d: %v", gc, chunks, err)
		}

		rowsOfExpert := make([]int, cfg.NumExperts) // summed over source PFTs
		var wantInter int64
		for rank, st := range states {
			// Source side: pilots and replicas partition the kept entries.
			seen := make([]int, st.pft.B())
			for _, ent := range st.pilotEntry {
				seen[ent]++
			}
			for _, ents := range st.replicaEntry {
				for _, ent := range ents {
					seen[ent]++
				}
			}
			for ent, n := range seen {
				if n != 1 {
					t.Fatalf("%+v C=%d rank %d: PFT entry %d travels %d times", gc, chunks, rank, ent, n)
				}
			}
			for e, n := range st.pft.TokensPerExpert {
				rowsOfExpert[e] += n
			}
			// The pilots, and the metadata every member received from this
			// rank, are the per-token reference selection's.
			sel := pilotSel{pilotEntry: st.pilotEntry, replicaEntry: st.replicaEntry, metas: make([]s1Meta, world)}
			for dst := range sel.metas {
				sel.metas[dst] = states[dst].recvMetas[rank]
			}
			if err := sel.equal(selectPilotsRef(d, st.pft, o.PilotPolicy, tensor.NewRNG(gc.seed^uint64(rank)))); err != nil {
				t.Fatalf("%+v C=%d rank %d: %v", gc, chunks, rank, err)
			}
			for dst, m := range sel.metas {
				if err := countsMatchRows(d, dst, m); err != nil {
					t.Fatalf("%+v C=%d rank %d: %v", gc, chunks, rank, err)
				}
			}
			for slot, sent := range st.s2SentByMember {
				if st.s2SentCount[slot] != len(sent) {
					t.Fatalf("%+v C=%d rank %d: %d replicas counted to slot %d, %d staged", gc, chunks, rank, st.s2SentCount[slot], slot, len(sent))
				}
			}
			for bc := 1; bc <= 8; bc++ {
				off, refs := st.mergesByChunk(bc, true)
				wantOff, wantRefs := mergesByChunkRef(st, bc)
				if !slices.Equal(off, wantOff) || !slices.Equal(refs, wantRefs) {
					t.Fatalf("%+v C=%d rank %d: merges at C=%d are %v %v, counted per record %v %v", gc, chunks, rank, bc, off, refs, wantOff, wantRefs)
				}
			}

			// Destination side: the row map.
			nPilot, nReplica := 0, 0
			for le := range st.RowsPerLE {
				if st.RowsPerLE[le] != st.PilotRowsPerLE[le]+st.ReplicaRowsPerLE[le] {
					t.Fatalf("%+v C=%d rank %d: RowsPerLE[%d] = %d, pilots %d + replicas %d", gc, chunks, rank, le,
						st.RowsPerLE[le], st.PilotRowsPerLE[le], st.ReplicaRowsPerLE[le])
				}
				nPilot += st.PilotRowsPerLE[le]
				nReplica += st.ReplicaRowsPerLE[le]
			}
			nS2 := 0
			for _, n := range st.s2RecvCount {
				nS2 += n
			}
			// rows[i] is the origin of State-layout row i, from the row map.
			rows := make([]rowRef, nPilot+nReplica)
			mapped := len(st.pilotRow)
			for abs, row := range st.pilotRow {
				rows[row] = rowRef{part: pilotPart, pos: abs}
			}
			for part, rs := range st.replicaRow {
				mapped += len(rs)
				for pos, row := range rs {
					rows[row] = rowRef{part: part, pos: pos}
				}
			}
			if nPilot != st.pilotRowsTotal || nReplica != nS2 || mapped != nPilot+nReplica {
				t.Fatalf("%+v C=%d rank %d: %d rows mapped; segments hold %d pilots + %d replicas, received %d + %d",
					gc, chunks, rank, mapped, nPilot, nReplica, st.pilotRowsTotal, nS2)
			}
			pilotSeen := make([]bool, st.pilotRowsTotal)
			s2Seen := make([][]bool, len(st.s2RecvCount))
			for part, n := range st.s2RecvCount {
				s2Seen[part] = make([]bool, n)
			}
			row := 0
			for le := range st.RowsPerLE {
				// (part, pos) must ascend through the segment, pilots first.
				prev := rowRef{part: pilotPart, pos: -1}
				for i := 0; i < st.RowsPerLE[le]; i, row = i+1, row+1 {
					ref := rows[row]
					if (ref.part == pilotPart) != (i < st.PilotRowsPerLE[le]) ||
						ref.part < prev.part || (ref.part == prev.part && ref.pos <= prev.pos) {
						t.Fatalf("%+v C=%d rank %d: expert %d row %d is %+v after %+v", gc, chunks, rank, le, i, ref, prev)
					}
					prev = ref
					mark := pilotSeen
					if ref.part != pilotPart {
						mark = s2Seen[ref.part]
					}
					if mark[ref.pos] {
						t.Fatalf("%+v C=%d rank %d: %+v mapped twice", gc, chunks, rank, ref)
					}
					mark[ref.pos] = true
				}
			}

			// Wire: what this rank received across a node boundary in S1
			// returns across it in C1.
			for src, m := range st.recvMetas {
				if d.nodeOfMember[src] != d.nodeOfMember[rank] {
					wantInter += 2*int64(len(m.weights))*rowBytes + m.bytes()
				}
			}
		}
		for e, want := range rowsOfExpert {
			if got := states[e/gc.epr].RowsPerLE[e%gc.epr]; got != want {
				t.Fatalf("%+v C=%d: expert %d receives %d rows, the PFTs hold %d for it", gc, chunks, e, got, want)
			}
		}
		if counter.bytes != wantInter {
			t.Fatalf("%+v C=%d: %d bytes crossed node boundaries, the pilots and their metadata are %d", gc, chunks, counter.bytes, wantInter)
		}
		return outs, states
	}

	// symbolic runs the case's symbolic forward at the chunk count the
	// numeric states ran and holds its counts to theirs.
	symbolic := func(chunks int, numeric []*State) {
		c := newCluster(world)
		d := NewDispatcher(c, c.WorldGroup(), cfg)
		states := make([]*State, world)
		o := opts
		o.OverlapChunks = chunks
		if err := c.Run(func(r *simrt.Rank) error {
			_, rt, _ := inputs(r)
			res := Forward(r, d, cfg, gc.s, nil, rt, nil, tensor.NewRNG(gc.seed^uint64(r.ID)), o)
			if pft := res.PFT; pft.TokenIDs != nil || pft.CombineWeights != nil {
				return fmt.Errorf("rank %d: the symbolic PFT kept its rows", r.ID)
			}
			states[r.ID] = res.State.Ex.(*State)
			return nil
		}); err != nil {
			t.Fatalf("%+v symbolic C=%d: %v", gc, chunks, err)
		}
		for rank, sym := range states {
			num := numeric[rank]
			if err := symbolicCountsMatch(sym, num); err != nil {
				t.Fatalf("%+v C=%d rank %d: %v", gc, chunks, rank, err)
			}
			for bc := 1; bc <= 8; bc++ {
				off, _ := sym.mergesByChunk(bc, false)
				if want, _ := num.mergesByChunk(bc, true); !slices.Equal(off, want) {
					t.Fatalf("%+v C=%d rank %d: symbolic merge offsets at C=%d are %v, numeric %v", gc, chunks, rank, bc, off, want)
				}
			}
		}
	}

	c1, states := run(1)
	symbolic(1, states)
	c3, states := run(3)
	symbolic(3, states)
	c := newCluster(world)
	g := c.WorldGroup()
	if err := c.Run(func(r *simrt.Rank) error {
		x, rt, params := inputs(r)
		flat := moe.PFTForward(r, g, cfg, gc.s, x, rt, params, opts).Output
		if !c1[r.ID].Equal(flat, 1e-3) {
			t.Errorf("%+v rank %d: RBD forward differs from PFT forward", gc, r.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for rank := range c1 {
		for i, v := range c1[rank].Data {
			if math.Float32bits(v) != math.Float32bits(c3[rank].Data[i]) {
				t.Fatalf("%+v rank %d: output[%d] = %x at C=1, %x at C=3", gc, rank, i,
					math.Float32bits(v), math.Float32bits(c3[rank].Data[i]))
			}
		}
	}
}

// symbolicCountsMatch compares a symbolic state's counts with the numeric
// state's of the same rank and inputs: the pilot parts it sent, the
// Stage-1 counts it received, the Stage-2 counts, and the per-expert
// segmentation. The symbolic state keeps no pilot list.
func symbolicCountsMatch(sym, num *State) error {
	if sym.pilotEntry != nil {
		return fmt.Errorf("the symbolic state kept its %d-pilot list", len(sym.pilotEntry))
	}
	if !slices.Equal(sym.partStart, num.partStart) {
		return fmt.Errorf("symbolic parts %v, numeric %v", sym.partStart, num.partStart)
	}
	for src, m := range sym.recvMetas {
		if err := countsEqual(m, num.recvMetas[src]); err != nil {
			return fmt.Errorf("part from %d: %v", src, err)
		}
	}
	for _, c := range []struct {
		name     string
		sym, num []int
	}{
		{"Stage-2 sent", sym.s2SentCount, num.s2SentCount},
		{"Stage-2 received", sym.s2RecvCount, num.s2RecvCount},
		{"pilot rows per expert", sym.PilotRowsPerLE, num.PilotRowsPerLE},
		{"replica rows per expert", sym.ReplicaRowsPerLE, num.ReplicaRowsPerLE},
	} {
		if !slices.Equal(c.sym, c.num) {
			return fmt.Errorf("%s: symbolic %v, numeric %v", c.name, c.sym, c.num)
		}
	}
	return nil
}

// mergesByChunkRef is the merge bucketing as mergesByChunk made it before
// the sources' repCum prefixes gave its offsets, kept as their reference:
// every merge target counted into the chunk its pilot row returns in.
func mergesByChunkRef(st *State, chunks int) (off []int, refs []mergeRef) {
	// The chunk of row pos of an n-row part inverts ChunkRange's floor split.
	chunkOf := func(sRec s2Sent) int {
		pos := int(sRec.pilotAbs) - st.pilotPartOff[sRec.src]
		return ((pos+1)*chunks - 1) / st.partLen(int(sRec.src))
	}
	off = make([]int, chunks+1)
	for _, sent := range st.s2SentByMember {
		for _, sRec := range sent {
			off[chunkOf(sRec)+1]++
		}
	}
	for c := 0; c < chunks; c++ {
		off[c+1] += off[c]
	}
	refs = make([]mergeRef, off[chunks])
	next := append([]int(nil), off[:chunks]...)
	for slot, sent := range st.s2SentByMember {
		for pos, sRec := range sent {
			c := chunkOf(sRec)
			refs[next[c]] = mergeRef{slot: slot, pos: pos}
			next[c]++
		}
	}
	return off, refs
}

// geomCases is the table and the fuzz seed corpus.
var geomCases = []geomCase{
	{seed: 1, twoNodes: true, epr: 2, k: 5, s: 24, skew10: 6, cf10: 12},
	{seed: 2, twoNodes: false, epr: 2, k: 4, s: 24, skew10: 6, cf10: 12},
	// Zipfian load against a tight and a loose capacity.
	{seed: 3, twoNodes: true, epr: 2, k: 6, s: 40, skew10: 20, cf10: 5},
	{seed: 4, twoNodes: true, epr: 4, k: 6, s: 40, skew10: 20, cf10: 1000, firstExpert: true},
	// k = E: every token to every expert, every node group full.
	{seed: 5, twoNodes: true, epr: 1, k: 16, s: 12, skew10: 6, cf10: 12},
	// One expert; the others stay empty.
	{seed: 6, twoNodes: true, epr: 2, k: 1, s: 30, shape: geomOneExpert, cf10: 12},
	{seed: 7, twoNodes: true, epr: 2, k: 3, s: 30, skew10: 6, shape: geomHalfEmpty, cf10: 12},
	// Tied scores under capacity pressure.
	{seed: 8, twoNodes: true, epr: 2, k: 4, s: 32, skew10: 10, shape: geomEqualWeights, cf10: 8},
	// k = 1: no replica anywhere.
	{seed: 9, twoNodes: true, epr: 2, k: 1, s: 16, skew10: 6, cf10: 12},
	{seed: 10, twoNodes: false, epr: 1, k: 8, s: 1, cf10: 12, firstExpert: true},
}

func TestRBDGeometry(t *testing.T) {
	for _, gc := range geomCases {
		checkGeometry(t, gc)
	}
}

// FuzzRBDGeometry drives the same checks from arbitrary recipes; the
// arguments are clamped into the dispatcher's domain (k <= drawn experts,
// E divisible by the world) rather than rejected, so every input
// exercises it.
func FuzzRBDGeometry(f *testing.F) {
	for _, gc := range geomCases {
		f.Add(gc.seed, gc.twoNodes, gc.epr, gc.k, gc.s, gc.skew10, gc.cf10, gc.shape, gc.firstExpert)
	}
	f.Fuzz(func(t *testing.T, seed uint64, twoNodes bool, epr, k, s, skew10, cf10, shape int, firstExpert bool) {
		mod := func(v, n int) int { return ((v % n) + n) % n }
		gc := geomCase{seed: seed, twoNodes: twoNodes, epr: 1 + mod(epr, 4), s: 1 + mod(s, 48),
			skew10: mod(skew10, 31), cf10: 1 + mod(cf10, 40), shape: mod(shape, numGeomShapes), firstExpert: firstExpert}
		e := 8 * gc.epr
		if twoNodes {
			e *= 2
		}
		gc.k = 1 + mod(k, e)
		if gc.shape == geomHalfEmpty {
			gc.k = 1 + mod(k, max(e/2, 1))
		}
		checkGeometry(t, gc)
	})
}

// rowRef is the origin of one expert-input row: a received pilot (part is
// pilotPart, pos its absolute row in the received pilot buffer) or a
// replica delivered by Stage 2 (pos within node-group member part's
// payload).
type rowRef struct{ part, pos int }

// pilotPart is rowRef.part of a pilot row.
const pilotPart = -1
