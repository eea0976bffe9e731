package tensor

import "fmt"

// The three GEMM kernels below are register-tiled, but every output
// element is still produced by the float32 operation sequence of the
// plain triple loop: the accumulator starts at +0 and takes s += a·b in
// ascending p. Trainer losses, gradients, checkpoints and benchmark
// digests are pinned to those bits (matmul_ref_test.go keeps the plain
// loops), so a tile may change which elements are computed together,
// never the order of the terms inside one element. The tiles are sized
// for the fifteen scalar float registers amd64 leaves the compiler.

// MatMul computes C = A·B for A of shape [m,k] and B of shape [k,n],
// returning a new [m,n] tensor. See MatMulInto for the kernel.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v", a.shape, b.shape))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes C = A·B into the preallocated tensor c, which must
// have shape [m,n]. c is overwritten. Rows of C are computed in parallel
// across the worker pool.
//
// Terms whose A coefficient is exactly zero are skipped, so 0·Inf and
// 0·NaN contribute nothing and a zero row of A gives a +0 row of C.
// MatMulTInto does not skip (there 0·Inf is NaN).
func MatMulInto(c, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n := b.Cols()
	if b.Rows() != k || c.Rows() != m || c.Cols() != n {
		panic(fmt.Sprintf("tensor: matmulinto shape mismatch C%v = A%v x B%v", c.shape, a.shape, b.shape))
	}
	ParallelFor(m, 8, func(lo, hi int) {
		axpyGEMM(c.Data, a.Data, b.Data, lo, hi, k, n, k, 1)
	})
}

// MatMulT computes C = A·Bᵀ for A of shape [m,k] and B of shape [n,k],
// returning a new [m,n] tensor. This is the natural layout for computing
// activations against weight matrices stored output-major, and for the
// dX = dY·Wᵀ backward rule when W is stored as [k,n] transposed views.
func MatMulT(a, b *Tensor) *Tensor {
	c := New(a.Rows(), b.Rows())
	MatMulTInto(c, a, b)
	return c
}

// MatMulTInto computes C = A·Bᵀ into the preallocated tensor c, which must
// have shape [m,n] for A [m,k] and B [n,k]. c is overwritten. The result
// is bit-identical to MatMulT.
//
// Every term is accumulated, zero coefficients included: a zero in A
// against an Inf or NaN in B yields NaN, where MatMulInto and TMatMulInto
// skip the term.
func MatMulTInto(c, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 || c.Rows() != m || c.Cols() != n {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch C%v = A%v x B%vᵀ", c.shape, a.shape, b.shape))
	}
	// Three rows of A against two rows of B per tile. A tail row or
	// column is clamped onto the last one: the tile computes that element
	// twice and stores the same bits twice, always inside this chunk.
	ParallelFor(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i += 3 {
			i1, i2 := min(i+1, hi-1), min(i+2, hi-1)
			a0, a1, a2 := a.Row(i), a.Row(i1), a.Row(i2)
			c0, c1, c2 := c.Row(i), c.Row(i1), c.Row(i2)
			for j := 0; j < n; j += 2 {
				j1 := min(j+1, n-1)
				s00, s01, s10, s11, s20, s21 := dot3x2(a0, a1, a2, b.Data[j*k:(j+1)*k], b.Data[j1*k:(j1+1)*k])
				c0[j], c0[j1] = s00, s01
				c1[j], c1[j1] = s10, s11
				c2[j], c2[j1] = s20, s21
			}
		}
	})
}

// dot3x2 returns the six dot products of rows a0, a1, a2 with rows b0,
// b1, all of len(a0) elements: five loads feed six independent
// accumulator chains, where a lone dot product waits on one. Six is the
// widest tile go1.24 keeps in registers: it issues an iteration's
// multiplies before the adds, so products and accumulators are live
// together, and a 2×4 tile spills six values per step.
func dot3x2(a0, a1, a2, b0, b1 []float32) (s00, s01, s10, s11, s20, s21 float32) {
	k := len(a0)
	a1, a2, b0, b1 = a1[:k], a2[:k], b0[:k], b1[:k]
	for p := 0; p < k; p++ {
		y0, y1 := b0[p], b1[p]
		x0, x1, x2 := a0[p], a1[p], a2[p]
		s00 += x0 * y0
		s01 += x0 * y1
		s10 += x1 * y0
		s11 += x1 * y1
		s20 += x2 * y0
		s21 += x2 * y1
	}
	return
}

// TMatMul computes C = Aᵀ·B for A of shape [k,m] and B of shape [k,n],
// returning a new [m,n] tensor. This is the dW = Xᵀ·dY backward rule.
func TMatMul(a, b *Tensor) *Tensor {
	c := New(a.Cols(), b.Cols())
	TMatMulInto(c, a, b)
	return c
}

// TMatMulInto computes C = Aᵀ·B into the preallocated tensor c, which must
// have shape [m,n] for A [k,m] and B [k,n]. c is overwritten. The result
// is bit-identical to TMatMul.
//
// As in MatMulInto, terms whose A coefficient is exactly zero are skipped
// (0·Inf contributes nothing); MatMulTInto does not skip.
func TMatMulInto(c, a, b *Tensor) {
	k, m := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 || c.Rows() != m || c.Cols() != n {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch C%v = A%vᵀ x B%v", c.shape, a.shape, b.shape))
	}
	ParallelFor(m, 4, func(lo, hi int) {
		axpyGEMM(c.Data, a.Data, b.Data, lo, hi, k, n, 1, m)
	})
}

// axpyGEMM computes rows [lo,hi) of C [m,n] = A'·B for B [k,n], where the
// coefficient of row i at step p is a[i*si+p*sp]: (si,sp) = (k,1) reads A
// as [m,k] (MatMulInto), (1,m) as [k,m] transposed (TMatMulInto). Terms
// with a zero coefficient are skipped.
//
// Four steps of p are fused over two rows of C (axpy4x2), and the rows
// run inside the steps, so B streams once however long k is. A group
// holding a zero coefficient, an odd last row and the k%4 tail take one
// AXPY per term instead.
func axpyGEMM(c, a, b []float32, lo, hi, k, n, si, sp int) {
	clear(c[lo*n : hi*n])
	row := func(d []float32, i int) []float32 { return d[i*n : (i+1)*n] }
	p := 0
	for ; p+4 <= k; p += 4 {
		b0, b1, b2, b3 := row(b, p), row(b, p+1), row(b, p+2), row(b, p+3)
		i := lo
		for ; i+2 <= hi; i += 2 {
			o0 := i*si + p*sp
			o1 := o0 + si
			x00, x01, x02, x03 := a[o0], a[o0+sp], a[o0+2*sp], a[o0+3*sp]
			x10, x11, x12, x13 := a[o1], a[o1+sp], a[o1+2*sp], a[o1+3*sp]
			c0, c1 := row(c, i), row(c, i+1)
			if x00 != 0 && x01 != 0 && x02 != 0 && x03 != 0 &&
				x10 != 0 && x11 != 0 && x12 != 0 && x13 != 0 {
				axpy4x2(c0, c1, b0, b1, b2, b3, x00, x01, x02, x03, x10, x11, x12, x13)
				continue
			}
			axpy(c0, b0, x00)
			axpy(c0, b1, x01)
			axpy(c0, b2, x02)
			axpy(c0, b3, x03)
			axpy(c1, b0, x10)
			axpy(c1, b1, x11)
			axpy(c1, b2, x12)
			axpy(c1, b3, x13)
		}
		if i < hi {
			o := i*si + p*sp
			ci := row(c, i)
			axpy(ci, b0, a[o])
			axpy(ci, b1, a[o+sp])
			axpy(ci, b2, a[o+2*sp])
			axpy(ci, b3, a[o+3*sp])
		}
	}
	for ; p < k; p++ {
		bp := row(b, p)
		for i := lo; i < hi; i++ {
			axpy(row(c, i), bp, a[i*si+p*sp])
		}
	}
}

// axpy4x2 adds four scaled rows of B to two rows of C:
// c0[j] += x00·b0[j], then x01·b1[j], x02·b2[j], x03·b3[j], in that order,
// and c1 likewise with x10..x13. Each c element is loaded and stored once
// per eight multiply-adds and each b element once per two.
func axpy4x2(c0, c1, b0, b1, b2, b3 []float32, x00, x01, x02, x03, x10, x11, x12, x13 float32) {
	n := len(c0)
	c1, b0, b1, b2, b3 = c1[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	for j := 0; j < n; j++ {
		y0, y1, y2, y3 := b0[j], b1[j], b2[j], b3[j]
		s0 := c0[j]
		s0 += x00 * y0
		s0 += x01 * y1
		s0 += x02 * y2
		s0 += x03 * y3
		c0[j] = s0
		s1 := c1[j]
		s1 += x10 * y0
		s1 += x11 * y1
		s1 += x12 * y2
		s1 += x13 * y3
		c1[j] = s1
	}
}

// axpy adds x·b to c element by element, or nothing when x is zero.
func axpy(c, b []float32, x float32) {
	if x == 0 {
		return
	}
	b = b[:len(c)]
	for j := range c {
		c[j] += x * b[j]
	}
}

// MatMulFLOPs returns the floating-point operation count of an [m,k]x[k,n]
// multiply (2mkn), used by the performance model.
func MatMulFLOPs(m, k, n int) int64 {
	return 2 * int64(m) * int64(k) * int64(n)
}
