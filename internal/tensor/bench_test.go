package tensor

import (
	"fmt"
	"sync"
	"testing"
)

func BenchmarkParallelFor(b *testing.B) {
	dst := make([]float32, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelFor(len(dst), 1024, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] += 1
			}
		})
	}
}

// BenchmarkParallelForNested models simrt's execution shape: many rank
// goroutines concurrently issuing parallel kernels, which previously
// oversubscribed the machine with spawned goroutines.
func BenchmarkParallelForNested(b *testing.B) {
	const ranks = 16
	bufs := make([][]float32, ranks)
	for i := range bufs {
		bufs[i] = make([]float32, 1<<14)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for rk := 0; rk < ranks; rk++ {
			wg.Add(1)
			go func(rk int) {
				defer wg.Done()
				buf := bufs[rk]
				ParallelFor(len(buf), 512, func(lo, hi int) {
					for j := lo; j < hi; j++ {
						buf[j] += 1
					}
				})
			}(rk)
		}
		wg.Wait()
	}
}

func BenchmarkMatMul(b *testing.B) {
	rng := NewRNG(1)
	a := Randn(rng, 1, 128, 128)
	w := Randn(rng, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, w)
	}
}

func BenchmarkMatMulT(b *testing.B) {
	rng := NewRNG(1)
	a := Randn(rng, 1, 128, 128)
	w := Randn(rng, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT(a, w)
	}
}

func BenchmarkTMatMul(b *testing.B) {
	rng := NewRNG(1)
	a := Randn(rng, 1, 128, 128)
	w := Randn(rng, 1, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMul(a, w)
	}
}

// benchGEMMInto times one *Into kernel at the shapes a rank of the numeric
// trainer runs it at (the same the benchmark's tensor probes use) and
// reports GFLOP/s beside ns/op.
func benchGEMMInto(b *testing.B, kernel func(c, a, w *Tensor), c, a, w *Tensor) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(c, a, w)
	}
	// FLOPs per nanosecond is GFLOP/s.
	flops := 2 * float64(trainRows*trainH*trainF) * float64(b.N)
	b.ReportMetric(flops/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

func BenchmarkMatMulInto(b *testing.B) {
	rng := NewRNG(1)
	benchGEMMInto(b, MatMulInto, New(trainRows, trainF), Randn(rng, 1, trainRows, trainH), Randn(rng, 1, trainH, trainF))
}

func BenchmarkMatMulTInto(b *testing.B) {
	rng := NewRNG(1)
	benchGEMMInto(b, MatMulTInto, New(trainRows, trainH), Randn(rng, 1, trainRows, trainF), Randn(rng, 1, trainH, trainF))
}

func BenchmarkTMatMulInto(b *testing.B) {
	rng := NewRNG(1)
	benchGEMMInto(b, TMatMulInto, New(trainH, trainF), Randn(rng, 1, trainRows, trainH), Randn(rng, 1, trainRows, trainF))
}

// BenchmarkAxpyGEMM times axpyGEMM alone on one goroutine, C [1024,n] =
// A [1024,128]·B [128,n] with no zero coefficients, and reports GFLOP/s:
// at the trainer's n of 64 and 128 the per-call cost of the body shows
// apart from ParallelFor's, and n = 1024 is the long-row reference.
func BenchmarkAxpyGEMM(b *testing.B) {
	const m, k = trainRows, trainH
	for _, n := range []int{64, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := NewRNG(1)
			a, w, c := Randn(rng, 1, m, k), Randn(rng, 1, k, n), New(m, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				axpyGEMM(c.Data, a.Data, w.Data, 0, m, k, n, k, 1, true)
			}
			flops := 2 * float64(m*k*n) * float64(b.N)
			b.ReportMetric(flops/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

// BenchmarkRandn times Randn at the numeric trainer's [rows, F] shape and
// reports ns per value: the polar draws, the block's log/sqrt pass and the
// float32 conversion.
func BenchmarkRandn(b *testing.B) {
	rng := NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Randn(rng, 1, trainRows, trainF)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trainRows*trainF), "ns/value")
}
