package moe

import (
	"fmt"
	"math"
	"testing"

	"xmoe/internal/tensor"
)

// syntheticRoutingRef is SyntheticRouting as it was before its normals
// were drawn in blocks: one normal at a time, each token's picks, logits,
// weights and sort in one pass. norm1 draws a single normal through a
// one-normal NormBlock, which the tensor tests hold to the scalar polar
// method bit for bit.
func syntheticRoutingRef(rng *tensor.RNG, s, e, k int, skew float64) Routing {
	norm1 := func() float64 {
		var b tensor.NormBlock
		b.Open(rng)
		b.Reserve(rng)
		return b.Resolve(rng)[0]
	}
	pop := make([]float64, e)
	perm := rng.Perm(e)
	for i := 0; i < e; i++ {
		pop[perm[i]] = math.Pow(float64(i+1), -skew)
	}
	cum := make([]float64, e)
	run := 0.0
	for i, v := range pop {
		run += v
		cum[i] = run
	}
	total := run
	search := newCumSearch(cum)

	r := Routing{S: s, Experts: make([]int32, s*k), Weights: make([]float32, s*k), Logits: make([]float32, s*k)}
	raw := make([]float64, k)
	chosenSet := make([]bool, e)
	for t := 0; t < s; t++ {
		experts := r.Experts[t*k : (t+1)*k]
		weights := r.Weights[t*k : (t+1)*k]
		logits := r.Logits[t*k : (t+1)*k]
		for j := 0; j < k; j++ {
			idx := -1
			for attempt := 0; attempt < 64; attempt++ {
				cand := search.find(rng.Float64() * total)
				if cand >= e {
					cand = e - 1
				}
				if !chosenSet[cand] {
					idx = cand
					break
				}
			}
			if idx < 0 {
				for cand := 0; cand < e; cand++ {
					if !chosenSet[cand] {
						idx = cand
						break
					}
				}
			}
			chosenSet[idx] = true
			experts[j] = int32(idx)
			logits[j] = float32(norm1() + 1.0)
		}
		for _, ex := range experts {
			chosenSet[ex] = false
		}
		var sum float64
		for j := range raw {
			raw[j] = math.Exp(norm1())
			sum += raw[j]
		}
		for j := range raw {
			weights[j] = float32(raw[j] / sum * 0.9)
		}
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if weights[b] > weights[a] {
					weights[a], weights[b] = weights[b], weights[a]
					experts[a], experts[b] = experts[b], experts[a]
					logits[a], logits[b] = logits[b], logits[a]
				}
			}
		}
	}
	return r
}

// TestSyntheticRoutingMatchesRef holds the block-drawn SyntheticRouting to
// the one-normal-at-a-time loop, bit for bit, and the generator after the
// call (state, spare and stale spare) to the loop's: k = 1, odd k, k = E,
// k past a block's room (one token's normals span blocks), a generator
// that enters with a spare, at skew 0 and 0.6.
func TestSyntheticRoutingMatchesRef(t *testing.T) {
	cases := []struct {
		s, e, k int
		spare   bool
	}{
		{300, 16, 1, false},
		{301, 32, 3, false},
		{257, 64, 6, true},
		{40, 8, 8, false},
		{33, 12, 12, true},
		{9, 200, tensor.NormBlockLen/2 + 1, false},
		{7, 300, 2*tensor.NormBlockLen + 3, true},
		{0, 8, 4, false},
	}
	for _, c := range cases {
		for _, skew := range []float64{0, 0.6} {
			name := fmt.Sprintf("s=%d e=%d k=%d spare=%v skew=%v", c.s, c.e, c.k, c.spare, skew)
			ref, got := tensor.NewRNG(uint64(c.s*c.k+1)), tensor.NewRNG(uint64(c.s*c.k+1))
			if c.spare {
				tensor.Randn(ref, 1, 1)
				tensor.Randn(got, 1, 1)
			}
			want := routingBits(syntheticRoutingRef(ref, c.s, c.e, c.k, skew))
			if bits := routingBits(SyntheticRouting(got, c.s, c.e, c.k, skew)); bits != want {
				t.Errorf("%s: routing bits\n got: %s\nwant: %s", name, bits, want)
			}
			if got.State() != ref.State() {
				t.Errorf("%s: generator after the call %+v, want %+v", name, got.State(), ref.State())
			}
		}
	}
}
