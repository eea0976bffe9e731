package moe

import (
	"math"
	"sort"
	"testing"

	"xmoe/internal/tensor"
)

// FuzzGuideSearch holds cumSearch.find to sort.SearchFloat64s, the binary
// search it replaced in SyntheticRouting. The cumulative weights are
// SyntheticRouting's (Zipf of exponent skew over a shuffled order of e
// experts) or, when weights is non-empty, one expert per byte, so zero
// weights and runs of equal cumulative values occur. The targets are frac
// of the total, every bucket edge, every cumulative value and the floats
// either side of each, 0, the total, and total·(1−2⁻⁵³), which is
// rng.Float64()·total at the largest Float64.
func FuzzGuideSearch(f *testing.F) {
	f.Add(uint64(1), uint16(64), 0.0, 0.5, []byte(nil))
	f.Add(uint64(2), uint16(64), 0.6, 0.3, []byte(nil))
	f.Add(uint64(3), uint16(256), 3.0, 0.9, []byte(nil))
	f.Add(uint64(4), uint16(1), 0.6, 0.7, []byte(nil))
	f.Add(uint64(5), uint16(256), 0.6, 0.25, []byte(nil))                   // 0.25·total is bucket 64's edge
	f.Add(uint64(6), uint16(256), 0.0, 1-0x1p-53, []byte(nil))              // the top of rng.Float64()·total
	f.Add(uint64(7), uint16(0), 0.0, 0.5, []byte{0, 3, 3, 0, 0, 1, 255, 0}) // zeros and ties
	f.Fuzz(func(t *testing.T, seed uint64, e uint16, skew, frac float64, weights []byte) {
		var cum []float64
		run := 0.0
		if len(weights) > 0 {
			for _, w := range weights {
				run += float64(w)
				cum = append(cum, run)
			}
		} else {
			if e == 0 || e > 4096 || math.IsNaN(skew) || math.Abs(skew) > 16 {
				t.Skip()
			}
			rng := tensor.NewRNG(seed)
			pop := make([]float64, e)
			for i, p := range rng.Perm(int(e)) {
				pop[p] = math.Pow(float64(i+1), -skew)
			}
			for _, v := range pop {
				run += v
				cum = append(cum, run)
			}
		}
		total := run
		if !(total > 0) || math.IsInf(total, 0) || math.IsNaN(frac) {
			t.Skip()
		}
		s := newCumSearch(cum)
		check := func(target float64) {
			if got, want := s.find(target), sort.SearchFloat64s(cum, target); got != want {
				t.Fatalf("find(%v) = %d, sort.SearchFloat64s = %d (E=%d, total %v)", target, got, want, len(cum), total)
			}
		}
		check(frac * total)
		check(0)
		check(total)
		check(total * (1 - 0x1p-53))
		for b := range cum {
			edge := float64(b) / s.scale
			check(edge)
			check(math.Nextafter(edge, math.Inf(-1)))
			check(math.Nextafter(edge, math.Inf(1)))
		}
		for _, c := range cum {
			check(c)
			check(math.Nextafter(c, math.Inf(-1)))
			check(math.Nextafter(c, math.Inf(1)))
		}
	})
}
