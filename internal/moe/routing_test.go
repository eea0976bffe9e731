package moe

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"xmoe/internal/tensor"
)

// routingBits hashes a routing's expert IDs, and the bit patterns of its
// weights and logits, in token-major order: one FNV-64a per array.
func routingBits(r Routing) string {
	he, hw, hl := fnv.New64a(), fnv.New64a(), fnv.New64a()
	var b [4]byte
	put := func(h interface{ Write([]byte) (int, error) }, v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	for i := range r.Experts {
		put(he, uint32(r.Experts[i]))
		put(hw, math.Float32bits(r.Weights[i]))
		put(hl, math.Float32bits(r.Logits[i]))
	}
	return fmt.Sprintf("S=%d K=%d experts=%016x weights=%016x logits=%016x", r.S, r.K(), he.Sum64(), hw.Sum64(), hl.Sum64())
}

// TestSyntheticRoutingGoldenBits pins SyntheticRouting's draw, and one
// Gate routing, bit for bit. The strings were recorded from the
// per-token-slice layout the flat arrays replaced: the layout must not
// move the RNG call order or any float expression.
func TestSyntheticRoutingGoldenBits(t *testing.T) {
	cases := []struct {
		name    string
		seed    uint64
		s, e, k int
		skew    float64
		want    string
	}{
		// The benchmark's Large layer, skewed and uniform.
		{"layer-skew", 42, 4096, 256, 8, 0.6,
			"S=4096 K=8 experts=a45cfcd2ce686366 weights=0a23185bdf79ff44 logits=e6ea4a5d2c07e8ed"},
		{"layer-uniform", 43, 4096, 256, 8, 0,
			"S=4096 K=8 experts=08fde66d0b6a9665 weights=65c913483d1ef89b logits=f87bd97693aef22c"},
		// SimulateStep's Small model.
		{"step", 7, 2048, 64, 6, 0.6,
			"S=2048 K=6 experts=831ebec5b1adff11 weights=f17178ae1f1c3c76 logits=914ff36f293c3486"},
		// Odd k: a spare of the polar method straddles a token's logit and weight draws.
		{"odd-k", 5, 333, 32, 3, 0.6,
			"S=333 K=3 experts=aeae65def4dfec48 weights=10faa678f632f4d4 logits=4b83568c996a3de2"},
		// k = E: every expert per token, the fallback scan included.
		{"k-equals-e", 9, 64, 8, 8, 1.2,
			"S=64 K=8 experts=e3589c5a3a9c3a85 weights=6bc17666a0f786df logits=7810bbf4393336d9"},
	}
	for _, c := range cases {
		if got := routingBits(SyntheticRouting(tensor.NewRNG(c.seed), c.s, c.e, c.k, c.skew)); got != c.want {
			t.Errorf("%s: routing bits moved\n got: %s\nwant: %s", c.name, got, c.want)
		}
	}
	rng := tensor.NewRNG(123)
	x := tensor.Randn(rng, 1, 96, 32)
	wg := tensor.Randn(rng, 0.5, 32, 16)
	const want = "S=96 K=4 experts=c1a8938fff67877b weights=21aabede7970b3b2 logits=c82d05e9e801ec4a"
	if got := routingBits(Gate(x, wg, 4)); got != want {
		t.Errorf("gate: routing bits moved\n got: %s\nwant: %s", got, want)
	}
}

// TestSyntheticRoutingBytes bounds one draw's heap to its 12 bytes per
// assignment plus per-expert scratch, so per-token slice headers (24 bytes
// each, three per token) cannot come back.
func TestSyntheticRoutingBytes(t *testing.T) {
	const s, e, k = 4096, 256, 8
	var ms runtime.MemStats
	best := uint64(math.MaxUint64)
	for range 3 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		benchRouting = SyntheticRouting(tensor.NewRNG(1), s, e, k, 0.6)
		runtime.ReadMemStats(&ms)
		if d := ms.TotalAlloc - before; d < best {
			best = d
		}
	}
	// Popularity, cumulative weights and the permutation are 8 bytes per
	// expert each and the chosen set one: 25 per expert today. A per-token
	// header array alone would be 24*s = 96*e here.
	if limit := uint64(12*s*k + 64*e); best > limit {
		t.Fatalf("one draw allocates %d bytes, want <= %d (12 per assignment + O(E))", best, limit)
	}
}

func TestRoutingValidate(t *testing.T) {
	valid := func() Routing {
		return Routing{S: 2, Experts: []int32{0, 3, 2, 1}, Weights: []float32{0.5, 0.25, 0.5, 0.25},
			Logits: []float32{1, -1, 0.5, 0}}
	}
	cases := []struct {
		name   string
		edit   func(r *Routing)
		errHas string // "" when the routing is valid
	}{
		{"valid", func(*Routing) {}, ""},
		{"nil logits", func(r *Routing) { r.Logits = nil }, ""},
		{"empty", func(r *Routing) { *r = Routing{} }, ""},
		{"negative S", func(r *Routing) { r.S = -1 }, "S=-1"},
		{"ragged", func(r *Routing) { r.S = 3 }, "do not split"},
		{"assignments without tokens", func(r *Routing) { r.S = 0 }, "do not split"},
		{"short weights", func(r *Routing) { r.Weights = r.Weights[:3] }, "3 weights"},
		{"short logits", func(r *Routing) { r.Logits = r.Logits[:2] }, "2 logits"},
		{"empty logits", func(r *Routing) { r.Logits = []float32{} }, "0 logits"},
		{"duplicate", func(r *Routing) { r.Experts[3] = 2 }, "twice"},
		{"out of range", func(r *Routing) { r.Experts[1] = 4 }, "outside [0,4)"},
		{"negative expert", func(r *Routing) { r.Experts[0] = -1 }, "outside [0,4)"},
		{"NaN weight", func(r *Routing) { r.Weights[2] = float32(math.NaN()) }, "weight NaN"},
		{"weight above one", func(r *Routing) { r.Weights[0] = 1.5 }, "outside [0,1]"},
	}
	for _, c := range cases {
		r := valid()
		c.edit(&r)
		err := r.validate(4)
		switch {
		case c.errHas == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.errHas != "" && (err == nil || !strings.Contains(err.Error(), c.errHas)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.errHas)
		}
	}
	// The seen-set is per token: the same expert in two tokens is fine.
	r := Routing{S: 2, Experts: []int32{1, 1}, Weights: []float32{0.5, 0.5}}
	if err := r.validate(2); err != nil {
		t.Errorf("expert shared across tokens: %v", err)
	}
}

// validate checks a routing's structural consistency against an expert
// count.
func (r Routing) validate(numExperts int) error {
	n := len(r.Experts)
	switch {
	case r.S < 0:
		return fmt.Errorf("moe: routing of S=%d tokens", r.S)
	case r.S == 0 && n != 0 || r.S > 0 && n%r.S != 0:
		return fmt.Errorf("moe: %d assignments do not split into S=%d tokens", n, r.S)
	case len(r.Weights) != n:
		return fmt.Errorf("moe: %d weights for %d assignments", len(r.Weights), n)
	case r.Logits != nil && len(r.Logits) != n:
		return fmt.Errorf("moe: %d logits for %d assignments", len(r.Logits), n)
	}
	k := r.K()
	seen := make([]bool, max(numExperts, 0))
	for t := 0; t < r.S; t++ {
		row := r.Experts[t*k : (t+1)*k]
		for j, e := range row {
			if e < 0 || int(e) >= numExperts {
				return fmt.Errorf("moe: token %d routed to expert %d outside [0,%d)", t, e, numExperts)
			}
			if seen[e] {
				return fmt.Errorf("moe: token %d routed to expert %d twice", t, e)
			}
			seen[e] = true
			if w := r.Weights[t*k+j]; w < 0 || w > 1 || math.IsNaN(float64(w)) {
				return fmt.Errorf("moe: token %d weight %f outside [0,1]", t, w)
			}
		}
		for _, e := range row {
			seen[e] = false
		}
	}
	return nil
}

// expertLoad returns the number of routed assignments per expert.
func (r Routing) expertLoad(numExperts int) []int {
	load := make([]int, numExperts)
	for _, e := range r.Experts {
		load[e]++
	}
	return load
}
