package tensor

import "fmt"

// The three GEMM kernels as they stood before the register-tiled
// rewrite, kept verbatim as the bit reference: every element of the
// tiled kernels must equal these loops by Float32bits.

// blockK is the reference's (no-op) k-dimension blocking factor.
const blockK = 64

func matMulRef(c, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n := b.Cols()
	if b.Rows() != k || c.Rows() != m || c.Cols() != n {
		panic(fmt.Sprintf("tensor: matmulinto shape mismatch C%v = A%v x B%v", c.shape, a.shape, b.shape))
	}
	for i := range c.Data {
		c.Data[i] = 0
	}
	ParallelFor(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Data[i*n : (i+1)*n]
			ai := a.Data[i*k : (i+1)*k]
			for k0 := 0; k0 < k; k0 += blockK {
				k1 := k0 + blockK
				if k1 > k {
					k1 = k
				}
				for p := k0; p < k1; p++ {
					av := ai[p]
					if av == 0 {
						continue
					}
					bp := b.Data[p*n : (p+1)*n]
					for j, bv := range bp {
						ci[j] += av * bv
					}
				}
			}
		}
	})
}

func matMulTRef(c, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 || c.Rows() != m || c.Cols() != n {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch C%v = A%v x B%vᵀ", c.shape, a.shape, b.shape))
	}
	ParallelFor(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b.Data[j*k : (j+1)*k]
				var s float32
				for p, av := range ai {
					s += av * bj[p]
				}
				ci[j] = s
			}
		}
	})
}

func tMatMulRef(c, a, b *Tensor) {
	k, m := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 || c.Rows() != m || c.Cols() != n {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch C%v = A%vᵀ x B%v", c.shape, a.shape, b.shape))
	}
	// Parallelise over rows of the output; each output row i accumulates
	// a[p][i] * b[p][:] over all p, reading B rows contiguously.
	ParallelFor(m, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c.Data[i*n : (i+1)*n]
			for j := range ci {
				ci[j] = 0
			}
			for p := 0; p < k; p++ {
				av := a.Data[p*m+i]
				if av == 0 {
					continue
				}
				bp := b.Data[p*n : (p+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	})
}
