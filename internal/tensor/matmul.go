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
// Where the CPU and OS support AVX2 (gemmVec, set once at package init
// from CPUID and XGETBV, axpy_amd64.{go,s}), one assembly call
// (axpy4x2Rows) runs a whole run of row pairs for four steps of p, eight
// columns per instruction. Its packed multiply rounds each product to
// float32 before the packed add, as the scalar code does, since Go never
// contracts float32 x*y+z into an FMA there and never sets flush-to-zero;
// `make no-asm-fma` keeps fused instructions out of the assembly. Every
// other CPU and GOARCH runs the Go row loop (axpy4x2RowsGo). The GEMM
// tests run that loop on amd64 too, against the reference; a backend that
// fuses x*y+z, as arm64's may, can still differ there.

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
// B is transposed into a pooled [k,n] scratch, each worker a band of its
// rows, and the product runs through MatMulInto's body. Every term is
// accumulated, zero coefficients included: a zero in A against an Inf or
// NaN in B yields NaN, where MatMulInto and TMatMulInto skip the term.
func MatMulTInto(c, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 || c.Rows() != m || c.Cols() != n {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch C%v = A%v x B%vᵀ", c.shape, a.shape, b.shape))
	}
	bt := transposeBufs.getBuf(n * k)
	// One closure runs both passes, so a call still allocates once: index
	// j < n is row j of B, which its worker writes into column j of bt,
	// and n+i is row i of C, computed once every column is in.
	pass := func(lo, hi int) {
		if lo < n {
			for j := lo; j < hi; j++ {
				for p, v := range b.Data[j*k : (j+1)*k] {
					bt[p*n+j] = v
				}
			}
			return
		}
		axpyGEMM(c.Data, a.Data, bt, lo-n, hi-n, k, n, k, 1, false)
	}
	parallelFor(0, n, 16, pass)
	parallelFor(n, m, 8, pass)
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
// run inside the steps, so B streams once however long k is. One
// axpy4x2Rows call runs every row pair of the range for a k-quad, or up
// to the first pair holding a zero coefficient when zeros are skipped.
// axpyGEMM finishes the column tail of the pairs the call ran (the
// columns past the body's lanes), gives the stopped pair one AXPY per
// term and calls the kernel again from the pair after it. An odd last
// row and the k%4 tail take one AXPY per term.
func axpyGEMM(c, a, b []float32, lo, hi, k, n, si, sp int, skipZeros bool) {
	clear(c[lo*n : hi*n])
	if lo == hi || k == 0 || n == 0 {
		return
	}
	// The kernel checks no bounds: check the last element of C, of B and
	// of A it can touch, once.
	_, _, _ = c[hi*n-1], b[k*n-1], a[(hi-1)*si+(k-1)*sp]
	kernel, cols := axpy4x2RowsGo, n
	if gemmVec {
		kernel, cols = axpy4x2Rows, n&^7
	}
	keepZeros := uint32(1)
	if skipZeros {
		keepZeros = 0
	}
	row := func(d []float32, i int) []float32 { return d[i*n : (i+1)*n] }
	p := 0
	// terms adds row i's four terms of the k-quad at p, one AXPY each.
	terms := func(i int, skipZero bool) {
		o, ci := i*si+p*sp, row(c, i)
		for q := range 4 {
			axpy(ci, row(b, p+q), a[o+q*sp], skipZero)
		}
	}
	for ; p+4 <= k; p += 4 {
		i := lo
		for i+2 <= hi {
			stop := kernel(c, a, b, i, hi, p, n, si, sp, keepZeros)
			if cols < n {
				for r := i; r < stop; r += 2 {
					axpy4x2(c, a, b, r, p, n, si, sp, cols)
				}
			}
			if i = stop; i+2 > hi {
				break
			}
			terms(i, true)
			terms(i+1, true)
			i += 2
		}
		if i < hi {
			terms(i, skipZeros)
		}
	}
	for ; p < k; p++ {
		bp := row(b, p)
		for i := lo; i < hi; i++ {
			axpy(row(c, i), bp, a[i*si+p*sp], skipZeros)
		}
	}
}

// axpy4x2RowsGo is axpy4x2Rows in Go, with the same contract and every
// column: it runs axpy4x2 over the row pairs from i while they fit below
// hi, and returns the first pair it did not run, stopping early, unless
// keepZeros is set, at a pair holding a ±0 coefficient. It is the body
// where gemmVec is clear; on an AVX2 host the GEMM tests clear it.
func axpy4x2RowsGo(c, a, b []float32, i, hi, p, n, si, sp int, keepZeros uint32) (stop int) {
	for ; i+2 <= hi; i += 2 {
		if keepZeros == 0 {
			for o := i*si + p*sp; o < (i+2)*si+p*sp; o += si {
				if a[o] == 0 || a[o+sp] == 0 || a[o+2*sp] == 0 || a[o+3*sp] == 0 {
					return i
				}
			}
		}
		axpy4x2(c, a, b, i, p, n, si, sp, 0)
	}
	return i
}

// axpy4x2 adds four scaled rows of B to rows i and i+1 of C over columns
// [j, n): c0[j] += x00·b0[j], then x01·b1[j], x02·b2[j], x03·b3[j], in
// that order, with x0q = a[i*si+(p+q)*sp] and bq row p+q of B, and c1
// likewise with x10..x13 one row of A further. Each c element is loaded
// and stored once per eight multiply-adds and each b element once per
// two. The AVX2 body of axpy4x2Rows runs this loop's leading columns in
// lanes; this loop runs its tail, and every column in axpy4x2RowsGo.
func axpy4x2(c, a, b []float32, i, p, n, si, sp, j int) {
	o0 := i*si + p*sp
	o1 := o0 + si
	x00, x01, x02, x03 := a[o0], a[o0+sp], a[o0+2*sp], a[o0+3*sp]
	x10, x11, x12, x13 := a[o1], a[o1+sp], a[o1+2*sp], a[o1+3*sp]
	c0, c1 := c[i*n:][:n], c[(i+1)*n:][:n]
	b0, b1, b2, b3 := b[p*n:][:n], b[(p+1)*n:][:n], b[(p+2)*n:][:n], b[(p+3)*n:][:n]
	for ; j < n; j++ {
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
