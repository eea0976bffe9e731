package moe

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"xmoe/internal/tensor"
)

// This file keeps the sort-based PFT construction the package shipped
// before the linear-time builder, as the reference the differential and
// fuzz tests compare buildPFT against. It is a direct transcription of
// Listing 1: flatten, order expert-major, sort each over-capacity segment
// by (weight desc, flat asc), keep the head, restore flat order.

// refEntry is one flattened (token, expert) assignment during
// construction.
type refEntry struct {
	flat   int // t*k + j, the stable tiebreaker
	token  int
	expert int
	weight float32
	logit  float32
}

func buildPFTRef(r Routing, numExperts int, caps []int, maxTokenCount int, policy DropPolicy) *PFT {
	capFor := func(e int) int {
		if caps != nil {
			return caps[e]
		}
		return maxTokenCount
	}
	k := r.K()
	entries := make([]refEntry, 0, r.S*k)
	for t := 0; t < r.S; t++ {
		for j := 0; j < k; j++ {
			ent := refEntry{
				flat:   t*k + j,
				token:  t,
				expert: int(r.Experts[t*k+j]),
				weight: r.Weights[t*k+j],
			}
			if r.Logits != nil {
				ent.logit = r.Logits[t*k+j]
			} else {
				ent.logit = 1 // treat unknown logits as positive
			}
			entries = append(entries, ent)
		}
	}

	if policy == DropNegativeThenPosition {
		// Negative scores drop; -0 and NaN are not negative.
		kept := entries[:0]
		for _, e := range entries {
			if !(e.logit < 0) {
				kept = append(kept, e)
			}
		}
		entries = kept
	}

	// Expert-major, stable in flat order (Listing 1 lines 20-21). A
	// counting sort over the expert bins keeps the flat order within each
	// expert segment — identical to a stable comparison sort — in
	// O(B + E) with no comparator indirection; BuildPFT runs once per
	// rank per simulated layer, so this is sweep-critical.
	{
		counts := make([]int, numExperts)
		for i := range entries {
			counts[entries[i].expert]++
		}
		off := make([]int, numExperts)
		run := 0
		for e, c := range counts {
			off[e] = run
			run += c
		}
		sorted := make([]refEntry, len(entries))
		for i := range entries {
			e := entries[i].expert
			sorted[off[e]] = entries[i]
			off[e]++
		}
		entries = sorted
	}

	// Capacity dropping per expert segment.
	retained := make([]refEntry, 0, len(entries))
	dropped := r.S*k - len(entries) // negatives already dropped
	for lo := 0; lo < len(entries); {
		hi := lo
		for hi < len(entries) && entries[hi].expert == entries[lo].expert {
			hi++
		}
		seg := entries[lo:hi]
		limit := capFor(entries[lo].expert)
		if limit > 0 && len(seg) > limit {
			switch policy {
			case DropByCapacityWeight:
				// Keep the limit highest-weight entries (Listing 1 lines
				// 24-33), then restore flat order.
				idx := make([]int, len(seg))
				for i := range idx {
					idx[i] = i
				}
				sort.SliceStable(idx, func(a, b int) bool {
					if seg[idx[a]].weight != seg[idx[b]].weight {
						return seg[idx[a]].weight > seg[idx[b]].weight
					}
					return seg[idx[a]].flat < seg[idx[b]].flat
				})
				keep := make([]bool, len(seg))
				for _, i := range idx[:limit] {
					keep[i] = true
				}
				for i, e := range seg {
					if keep[i] {
						retained = append(retained, e)
					}
				}
			case DropNegativeThenPosition:
				// First-come-first-served: seg is already flat-ordered.
				retained = append(retained, seg[:limit]...)
			}
			dropped += len(seg) - limit
		} else {
			retained = append(retained, seg...)
		}
		lo = hi
	}

	p := &PFT{
		TokenIDs:        make([]int, len(retained)),
		ExpertIDs:       make([]int, len(retained)),
		CombineWeights:  make([]float32, len(retained)),
		TokensPerExpert: make([]int, numExperts),
		Dropped:         dropped,
	}
	for i, e := range retained {
		p.TokenIDs[i] = e.token
		p.ExpertIDs[i] = e.expert
		p.CombineWeights[i] = e.weight
		p.TokensPerExpert[e.expert]++
	}
	return p
}

// pftCase is one differential input, flat enough to double as the fuzz
// corpus entry: a routing recipe plus a capacity recipe.
type pftCase struct {
	seed    uint64
	s, e, k int
	// skew10 is the SyntheticRouting exponent times ten.
	skew10 int
	// shape reworks the synthetic routing into a degenerate one.
	shape int
	// capMode picks the capacity; capArg parameterises it.
	capMode, capArg int
}

const (
	shapeSynthetic    = iota
	shapeOneExpert    // every token to expert 0 (k forced to 1)
	shapeEqualWeights // all combine weights equal: the tie path
	shapeNegLogits    // all logits negative
	shapeNilLogits    // producer does not track logits
	shapeHalfEmpty    // only the lower half of the experts is ever chosen
	shapeFewWeights   // weights drawn from four values: ties inside segments
	shapeOddLogits    // logits cycle through -0, +0, NaN, -Inf, +Inf and -min subnormal
	numShapes
)

const (
	capUnlimited = iota
	capFactor    // uniform, Config.Capacity at factor 1.25
	capUniform   // uniform, capArg rows
	capMixed     // per-expert caps: zero (unlimited), tight and loose entries by e%3
	capHottest   // per-expert caps: only the hottest expert capped, at load-1+capArg
	numCapModes
)

// build turns the recipe into BuildPFT inputs: (caps == nil) selects the
// uniform limit.
func (c pftCase) build() (rt Routing, numExperts int, caps []int, limit int) {
	k, drawn := c.k, c.e
	switch c.shape {
	case shapeOneExpert:
		k, drawn = 1, 1
	case shapeHalfEmpty:
		drawn = max(c.e/2, k)
	}
	rt = SyntheticRouting(tensor.NewRNG(c.seed), c.s, drawn, k, float64(c.skew10)/10)
	switch c.shape {
	case shapeEqualWeights:
		for i := range rt.Weights {
			rt.Weights[i] = 0.25
		}
	case shapeFewWeights:
		for i := range rt.Weights {
			t, j := i/k, i%k
			rt.Weights[i] = float32(1+(t*7+j*3)%4) / 8
		}
	case shapeNegLogits:
		for i, l := range rt.Logits {
			rt.Logits[i] = -1 - l*l
		}
	case shapeNilLogits:
		rt.Logits = nil
	case shapeOddLogits:
		for i := range rt.Logits {
			rt.Logits[i] = oddLogits[i%len(oddLogits)]
		}
	}
	switch c.capMode {
	case capFactor:
		limit = Config{NumExperts: c.e, TopK: k, CapacityFactor: 1.25}.Capacity(c.s)
	case capUniform:
		limit = c.capArg
	case capMixed:
		caps = make([]int, c.e)
		for e := range caps {
			caps[e] = []int{0, 1 + c.capArg, c.s}[e%3]
		}
	case capHottest:
		caps = make([]int, c.e)
		hot, load := 0, rt.expertLoad(c.e)
		for e, n := range load {
			if n > load[hot] {
				hot = e
			}
		}
		caps[hot] = load[hot] - 1 + c.capArg
	}
	return rt, c.e, caps, limit
}

// checkPFTCase asserts that buildPFT and the sort-based reference agree
// field for field (weights by bit pattern) under both drop policies, that
// the result passes validate, that the counts-only build a symbolic
// layer makes has the row build's counts and no rows, and that the rows a
// symbolic RBD layer builds in a scratch set are the row build's.
func checkPFTCase(t *testing.T, c pftCase) {
	t.Helper()
	rt, numExperts, caps, limit := c.build()
	for _, policy := range []DropPolicy{DropByCapacityWeight, DropNegativeThenPosition} {
		got := buildPFT(rt, numExperts, caps, limit, policy, true, false, nil).withExpertIDs()
		want := buildPFTRef(rt, numExperts, caps, limit, policy)
		counts := buildPFT(rt, numExperts, caps, limit, policy, false, false, nil)
		if !slices.Equal(counts.TokensPerExpert, got.TokensPerExpert) || counts.Dropped != got.Dropped ||
			counts.B() != got.B() || counts.TokenIDs != nil || counts.ExpertIDs != nil || counts.CombineWeights != nil {
			t.Fatalf("%+v policy %d: counts-only PFT (B %d, %d dropped, per expert %v) differs from the rows (B %d, %d dropped, per expert %v)",
				c, policy, counts.B(), counts.Dropped, counts.TokensPerExpert, got.B(), got.Dropped, got.TokensPerExpert)
		}
		if err := scratchRowsMatch(rt, numExperts, caps, limit, policy, got); err != nil {
			t.Fatalf("%+v policy %d: %v", c, policy, err)
		}
		if !slices.Equal(got.TokenIDs, want.TokenIDs) || !slices.Equal(got.ExpertIDs, want.ExpertIDs) ||
			!slices.Equal(got.TokensPerExpert, want.TokensPerExpert) || got.Dropped != want.Dropped {
			t.Fatalf("%+v policy %d: PFT differs from the sort-based reference\n got %d rows, %d dropped, per expert %v\nwant %d rows, %d dropped, per expert %v",
				c, policy, got.B(), got.Dropped, got.TokensPerExpert, want.B(), want.Dropped, want.TokensPerExpert)
		}
		if len(got.CombineWeights) != len(want.CombineWeights) {
			t.Fatalf("%+v policy %d: %d weights, reference %d", c, policy, len(got.CombineWeights), len(want.CombineWeights))
		}
		for i, w := range got.CombineWeights {
			if math.Float32bits(w) != math.Float32bits(want.CombineWeights[i]) {
				t.Fatalf("%+v policy %d: CombineWeights[%d] = %x, reference %x", c, policy, i,
					math.Float32bits(w), math.Float32bits(want.CombineWeights[i]))
			}
		}
		// validate takes one uniform capacity; per-expert vectors are
		// covered by the field comparison above.
		if err := got.validate(rt.S, numExperts, limit); err != nil {
			t.Fatalf("%+v policy %d: %v", c, policy, err)
		}
	}
}

// pftCases is the differential table and the fuzz seed corpus.
var pftCases = []pftCase{
	// Skew ladder at the sweep shape, uniform factor capacity.
	{seed: 1, s: 512, e: 64, k: 6, skew10: 0, capMode: capFactor},
	{seed: 2, s: 512, e: 64, k: 6, skew10: 6, capMode: capFactor},
	{seed: 3, s: 512, e: 64, k: 6, skew10: 20, capMode: capFactor},
	{seed: 4, s: 512, e: 64, k: 6, skew10: 6, capMode: capUnlimited},
	// Per-expert vectors with zero (unlimited), tight and loose entries.
	{seed: 5, s: 256, e: 16, k: 4, skew10: 6, capMode: capMixed, capArg: 0},
	{seed: 6, s: 256, e: 16, k: 4, skew10: 20, capMode: capMixed, capArg: 40},
	// limit = segment length - 1, exactly, + 1 on the hottest expert.
	{seed: 7, s: 128, e: 8, k: 2, skew10: 6, capMode: capHottest, capArg: 0},
	{seed: 7, s: 128, e: 8, k: 2, skew10: 6, capMode: capHottest, capArg: 1},
	{seed: 7, s: 128, e: 8, k: 2, skew10: 6, capMode: capHottest, capArg: 2},
	// k = E: every expert holds every token.
	{seed: 8, s: 64, e: 8, k: 8, skew10: 6, capMode: capUniform, capArg: 50},
	// Every token to one expert; the other experts stay empty.
	{seed: 9, s: 200, e: 16, k: 1, shape: shapeOneExpert, capMode: capUniform, capArg: 37},
	{seed: 10, s: 200, e: 16, k: 3, skew10: 6, shape: shapeHalfEmpty, capMode: capFactor},
	// Tie paths: all weights equal, and few distinct weights.
	{seed: 11, s: 256, e: 8, k: 2, skew10: 6, shape: shapeEqualWeights, capMode: capFactor},
	{seed: 12, s: 256, e: 8, k: 4, skew10: 20, shape: shapeFewWeights, capMode: capFactor},
	{seed: 13, s: 256, e: 8, k: 4, skew10: 20, shape: shapeFewWeights, capMode: capUniform, capArg: 1},
	// Logit handling of the DeepSpeed policy.
	{seed: 14, s: 128, e: 8, k: 2, skew10: 6, shape: shapeNegLogits, capMode: capFactor},
	{seed: 15, s: 128, e: 8, k: 2, skew10: 6, shape: shapeNilLogits, capMode: capFactor},
	{seed: 17, s: 128, e: 8, k: 2, skew10: 6, shape: shapeOddLogits, capMode: capFactor},
	{seed: 18, s: 96, e: 4, k: 3, skew10: 0, shape: shapeOddLogits, capMode: capUnlimited},
	// Empty routing.
	{seed: 16, s: 0, e: 8, k: 2, capMode: capFactor},
}

// oddLogits are the scores whose sign test is easy to get wrong: the keep
// predicate !(l < 0) keeps -0, +0, NaN and +Inf and drops -Inf and the
// negative subnormal.
var oddLogits = []float32{float32(math.Copysign(0, -1)), 0, float32(math.NaN()), float32(math.Inf(-1)),
	float32(math.Inf(1)), -math.SmallestNonzeroFloat32}

// TestDropNegativeKeepsSignedZeroAndNaN pins the keep predicate of
// DropNegativeThenPosition on one token per odd logit, in the counts-only
// build, the row build and the reference.
func TestDropNegativeKeepsSignedZeroAndNaN(t *testing.T) {
	n := len(oddLogits)
	rt := Routing{S: n, Experts: make([]int32, n), Weights: make([]float32, n), Logits: oddLogits}
	counts := buildPFT(rt, 1, nil, 0, DropNegativeThenPosition, false, false, nil)
	rows := BuildPFT(rt, 1, 0, DropNegativeThenPosition)
	ref := buildPFTRef(rt, 1, nil, 0, DropNegativeThenPosition)
	const kept = "[0 1 2 4]" // -0, +0, NaN, +Inf
	for _, p := range []*PFT{rows, ref} {
		if got := fmt.Sprint(p.TokenIDs); got != kept {
			t.Fatalf("kept tokens %s, want %s", got, kept)
		}
	}
	for _, p := range []*PFT{counts, rows, ref} {
		if p.TokensPerExpert[0] != 4 || p.Dropped != 2 {
			t.Fatalf("%d kept and %d dropped, want 4 and 2", p.TokensPerExpert[0], p.Dropped)
		}
	}
}

func TestBuildPFTMatchesSortReference(t *testing.T) {
	for _, c := range pftCases {
		checkPFTCase(t, c)
	}
}

// FuzzBuildPFT drives the same comparison from arbitrary recipes; the
// arguments are clamped into the builder's domain (k <= drawn experts)
// rather than rejected, so every input exercises it.
func FuzzBuildPFT(f *testing.F) {
	for _, c := range pftCases {
		f.Add(c.seed, c.s, c.e, c.k, c.skew10, c.shape, c.capMode, c.capArg)
	}
	f.Fuzz(func(t *testing.T, seed uint64, s, e, k, skew10, shape, capMode, capArg int) {
		mod := func(v, n int) int { return ((v % n) + n) % n }
		c := pftCase{seed: seed, s: mod(s, 1024), e: 1 + mod(e, 64), skew10: mod(skew10, 31),
			shape: mod(shape, numShapes), capMode: mod(capMode, numCapModes), capArg: mod(capArg, 256)}
		c.k = 1 + mod(k, c.e)
		if c.shape == shapeHalfEmpty {
			c.k = 1 + mod(k, max(c.e/2, 1))
		}
		checkPFTCase(t, c)
	})
}

// scratchRowsMatch builds the PFT in a scratch set whose cells hold
// poison (an index no row can have, NaN weights) and compares its rows with
// want's by bit pattern: the build writes every cell it hands out.
// Releasing the set must drop the rows from the PFT and, with
// simrt.PoisonReleased on (the package's TestMain turns it on), poison
// them again; releasing a set from a PFT whose rows are its own must keep
// them.
func scratchRowsMatch(rt Routing, numExperts int, caps []int, limit int, policy DropPolicy, want *PFT) error {
	sc := new(Scratch)
	tokens, weights := sc.rows(len(rt.Experts))
	fill(tokens, math.MinInt)
	fill(weights, float32(math.NaN()))
	got := buildPFT(rt, numExperts, caps, limit, policy, true, false, sc)
	if !slices.Equal(got.TokenIDs, want.TokenIDs) || len(got.CombineWeights) != len(want.CombineWeights) {
		return fmt.Errorf("scratch rows %v, fresh rows %v", got.TokenIDs, want.TokenIDs)
	}
	for i, w := range got.CombineWeights {
		if math.Float32bits(w) != math.Float32bits(want.CombineWeights[i]) {
			return fmt.Errorf("scratch CombineWeights[%d] = %x, fresh %x", i, math.Float32bits(w), math.Float32bits(want.CombineWeights[i]))
		}
	}
	if got.Scratch() != sc {
		return fmt.Errorf("the PFT's grouping does not work in the set its rows live in")
	}
	rows := got.TokenIDs
	got.ReleaseScratch()
	if got.TokenIDs != nil || got.CombineWeights != nil {
		return fmt.Errorf("the PFT kept its rows after its scratch set went back")
	}
	for i, tok := range rows {
		if tok != math.MinInt {
			return fmt.Errorf("released row %d still reads token %d", i, tok)
		}
	}
	want.Scratch()
	want.ReleaseScratch()
	if want.TokenIDs == nil && want.B() > 0 {
		return fmt.Errorf("a PFT dropped its own rows with a scratch set")
	}
	return nil
}
