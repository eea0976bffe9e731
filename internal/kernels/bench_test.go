package kernels

import (
	"testing"

	"xmoe/internal/tensor"
)

// benchSetup builds a [s,h] token buffer and a top-k style dispatch plan
// with b routed rows across e experts.
func benchSetup(s, h, e, k int) (x *tensor.Tensor, ids []int, weights []float32, rows []int, w1 []*tensor.Tensor) {
	rng := tensor.NewRNG(7)
	x = tensor.Randn(rng, 1, s, h)
	ids = make([]int, 0, s*k)
	weights = make([]float32, 0, s*k)
	rows = make([]int, e)
	// Expert-major assignment: expert j gets every token with t%e in a
	// window, giving uneven but deterministic segments.
	for exp := 0; exp < e; exp++ {
		for t := 0; t < s; t++ {
			if (t+exp)%e < k {
				ids = append(ids, t)
				weights = append(weights, 0.5)
				rows[exp]++
			}
		}
	}
	w1 = make([]*tensor.Tensor, e)
	for exp := range w1 {
		w1[exp] = tensor.Randn(rng, 0.05, h, h)
	}
	return x, ids, weights, rows, w1
}

func BenchmarkGather(b *testing.B) {
	x, ids, _, _, _ := benchSetup(512, 128, 8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gather(x, ids)
	}
}

func BenchmarkGatherBackward(b *testing.B) {
	x, ids, _, _, _ := benchSetup(512, 128, 8, 2)
	dy := Gather(x, ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherBackward(dy, ids, x.Rows())
	}
}

func BenchmarkScatterCombine(b *testing.B) {
	x, ids, weights, _, _ := benchSetup(512, 128, 8, 2)
	mlpOut := Gather(x, ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScatterCombine(mlpOut, ids, weights, x.Rows())
	}
}

func BenchmarkSequentialGEMM(b *testing.B) {
	x, ids, _, rows, w1 := benchSetup(512, 128, 8, 2)
	seg := Gather(x, ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SequentialGEMM(seg, rows, w1)
	}
}
