package tensor

import "fmt"

// The three GEMM kernels below share one body, axpyGEMM: A·B and Aᵀ·B
// read A through two strides, and A·Bᵀ runs A·B over a transposed copy
// of B. Every output element is still produced by the float32 operation
// sequence of the plain triple loop: the accumulator starts at +0 and
// takes s += a·b in ascending p. Trainer losses, gradients, checkpoints
// and benchmark digests are pinned to those bits (matmul_ref_test.go
// keeps the plain loops), so the body may change which elements are
// computed together, never the order of the terms inside one element.
// On amd64 its inner loop runs four columns per SSE instruction
// (axpy_amd64.s): a packed multiply rounds each product to float32 before
// the packed add, as the scalar code does, since Go never contracts
// float32 x*y+z into an FMA there and never sets flush-to-zero. Any
// other GOARCH runs the Go loop alone; its bits are checked against the
// reference on amd64 only (the tail columns), and a backend that fuses
// x*y+z, as arm64's may, can differ.

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
		axpyGEMM(c.Data, a.Data, b.Data, lo, hi, k, n, k, 1, true)
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
// B is transposed into a pooled [k,n] scratch and the product runs
// through MatMulInto's body. Every term is accumulated, zero coefficients
// included: a zero in A against an Inf or NaN in B yields NaN, where
// MatMulInto and TMatMulInto skip the term.
func MatMulTInto(c, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 || c.Rows() != m || c.Cols() != n {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch C%v = A%v x B%vᵀ", c.shape, a.shape, b.shape))
	}
	bt := transposeBufs.getBuf(n * k)
	for j := 0; j < n; j++ {
		for p, v := range b.Data[j*k : (j+1)*k] {
			bt[p*n+j] = v
		}
	}
	ParallelFor(m, 8, func(lo, hi int) {
		axpyGEMM(c.Data, a.Data, bt, lo, hi, k, n, k, 1, false)
	})
	transposeBufs.putBuf(bt)
}

// transposeBufs holds MatMulTInto's transposed-B buffers. It is a Pool
// rather than a sync.Pool because under the race detector sync.Pool's
// Put drops buffers at random, and the steady-state allocation pins
// would then see the replacements. Like any Pool it keeps what it is
// given: per size bucket, one buffer per call that was in flight at once.
var transposeBufs Pool

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
		axpyGEMM(c.Data, a.Data, b.Data, lo, hi, k, n, 1, m, true)
	})
}

// axpyGEMM computes rows [lo,hi) of C [m,n] = A'·B for B [k,n], where the
// coefficient of row i at step p is a[i*si+p*sp]: (si,sp) = (k,1) reads A
// as [m,k] (MatMulInto, MatMulTInto), (1,m) as [k,m] transposed
// (TMatMulInto). With skipZeros, terms with a zero coefficient are
// skipped.
//
// Four steps of p are fused over two rows of C (axpy4x2), and the rows
// run inside the steps, so B streams once however long k is. An odd last
// row and the k%4 tail take one AXPY per term, and so does a group
// holding a zero coefficient when zeros are skipped.
func axpyGEMM(c, a, b []float32, lo, hi, k, n, si, sp int, skipZeros bool) {
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
			if !skipZeros || x00 != 0 && x01 != 0 && x02 != 0 && x03 != 0 &&
				x10 != 0 && x11 != 0 && x12 != 0 && x13 != 0 {
				axpy4x2(c0, c1, b0, b1, b2, b3, x00, x01, x02, x03, x10, x11, x12, x13)
				continue
			}
			axpy(c0, b0, x00, true)
			axpy(c0, b1, x01, true)
			axpy(c0, b2, x02, true)
			axpy(c0, b3, x03, true)
			axpy(c1, b0, x10, true)
			axpy(c1, b1, x11, true)
			axpy(c1, b2, x12, true)
			axpy(c1, b3, x13, true)
		}
		if i < hi {
			o := i*si + p*sp
			ci := row(c, i)
			axpy(ci, b0, a[o], skipZeros)
			axpy(ci, b1, a[o+sp], skipZeros)
			axpy(ci, b2, a[o+2*sp], skipZeros)
			axpy(ci, b3, a[o+3*sp], skipZeros)
		}
	}
	for ; p < k; p++ {
		bp := row(b, p)
		for i := lo; i < hi; i++ {
			axpy(row(c, i), bp, a[i*si+p*sp], skipZeros)
		}
	}
}

// axpy4x2 adds four scaled rows of B to two rows of C:
// c0[j] += x00·b0[j], then x01·b1[j], x02·b2[j], x03·b3[j], in that order,
// and c1 likewise with x10..x13. Each c element is loaded and stored once
// per eight multiply-adds and each b element once per two. axpy4x2Vec
// takes the leading columns four lanes at a time (SSE on amd64, none
// elsewhere) and this loop the rest.
func axpy4x2(c0, c1, b0, b1, b2, b3 []float32, x00, x01, x02, x03, x10, x11, x12, x13 float32) {
	n := len(c0)
	c1, b0, b1, b2, b3 = c1[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	for j := axpy4x2Vec(c0, c1, b0, b1, b2, b3, x00, x01, x02, x03, x10, x11, x12, x13); j < n; j++ {
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

// axpy adds x·b to c element by element, or nothing when x is zero and
// skipZero is set.
func axpy(c, b []float32, x float32, skipZero bool) {
	if skipZero && x == 0 {
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
