package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// gemmKernels pairs each tiled kernel with its plain-loop reference. All
// three are run on one logical problem C[m,n] = coef[m,k] · val[k,n],
// laid out the way each kernel reads its operands.
var gemmKernels = []gemmKernel{
	{name: "MatMulInto", tiled: MatMulInto, ref: matMulRef},
	{name: "MatMulTInto", tiled: MatMulTInto, ref: matMulTRef, transB: true},
	{name: "TMatMulInto", tiled: TMatMulInto, ref: tMatMulRef, transA: true},
}

type gemmKernel struct {
	name           string
	tiled, ref     func(c, a, b *Tensor)
	transA, transB bool // the kernel reads coefᵀ [k,m] / valᵀ [n,k]
}

// layout returns coef and val as the kernel's a and b operands.
func (kn gemmKernel) layout(coef, val *Tensor) (a, b *Tensor) {
	a, b = coef, val
	if kn.transA {
		a = transpose(coef)
	}
	if kn.transB {
		b = transpose(val)
	}
	return a, b
}

var negZero = float32(math.Copysign(0, -1))

// gemmCase is the recipe of one problem. zeroPer256 is the chance out of
// 256 that a coefficient is zeroed on top of the fixed pattern; special
// puts ±Inf, NaN, −0 and values near the bottom of the float32 range into
// the operands.
type gemmCase struct {
	seed       uint64
	m, k, n    int
	zeroPer256 int
	special    bool
}

func (g gemmCase) String() string {
	return fmt.Sprintf("seed=%d [%d,%d]x[%d,%d] zero=%d/256 special=%v", g.seed, g.m, g.k, g.k, g.n, g.zeroPer256, g.special)
}

// operands builds coef and val. coef carries every kind of zero the skip
// logic meets: every 11th element (alternately +0 and −0), all of row 1,
// and steps 4..7 of every row (a whole group of four). In a special case
// val carries −0 throughout, non-finite values on exactly those skipped
// steps — so the skipping kernels stay finite where MatMulTInto goes NaN —
// and one +Inf at val[0][0] that no kernel skips. It also carries
// subnormals and values whose products underflow, in val and as tiny
// coefficients. Column 1 of val holds only subnormal-range values apart
// from −0 and the non-finite steps, so its outputs are sums of subnormal
// products: a kernel that flushed subnormals to zero would lose those
// bits.
func (g gemmCase) operands() (coef, val *Tensor) {
	rng := NewRNG(g.seed)
	coef = Randn(rng, 1, g.m, g.k)
	val = Randn(rng, 1, g.k, g.n)
	for idx := range coef.Data {
		i, p := idx/g.k, idx%g.k
		if idx%11 == 0 || i == 1 || (p >= 4 && p < 8) || rng.Intn(256) < g.zeroPer256 {
			coef.Data[idx] = 0
			if idx%2 == 1 {
				coef.Data[idx] = negZero
			}
		}
	}
	if !g.special {
		return coef, val
	}
	for idx := range coef.Data {
		if idx%13 == 6 {
			coef.Data[idx] *= 1e-30
		}
	}
	nonFinite := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	tiny := []float32{
		math.Float32frombits(0x00012345),  // subnormal
		-math.Float32frombits(0x00000001), // smallest subnormal, negative
		1.5e-38,                           // normal; most products are subnormal
		-3e-30,                            // a tiny coefficient's product underflows to ±0
	}
	for idx := range val.Data {
		switch p := idx / g.n; {
		case idx == 0:
			val.Data[idx] = nonFinite[0]
		case p >= 4 && p < 8 && idx%3 == 0:
			val.Data[idx] = nonFinite[idx%len(nonFinite)]
		case idx%7 == 2:
			val.Data[idx] = negZero
		case idx%g.n == 1:
			val.Data[idx] = tiny[p%3]
		case idx%5 == 1:
			val.Data[idx] = tiny[idx%len(tiny)]
		}
	}
	return coef, val
}

func transpose(t *Tensor) *Tensor {
	r, c := t.Rows(), t.Cols()
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Data[j*r+i] = t.Data[i*c+j]
		}
	}
	return out
}

// sameBits reports the first element whose bit pattern differs.
func sameBits(got, want *Tensor) error {
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.Float32bits(g) != math.Float32bits(w) {
			return fmt.Errorf("element %d: got %v (%#08x), want %v (%#08x)",
				i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	return nil
}

// forEachBody runs f once per body of axpyGEMM this host can run: the Go
// row loop, then, where init selected it, the AVX2 body. The init-time
// choice is restored afterwards.
func forEachBody(f func(body string)) {
	host := gemmVec
	defer func() { gemmVec = host }()
	gemmVec = false
	f("go")
	if host {
		gemmVec = true
		f("avx2")
	}
}

// checkGEMMCase runs the three kernels with each body and their references
// into dirtied outputs and requires equal bits.
func checkGEMMCase(t *testing.T, g gemmCase) {
	t.Helper()
	coef, val := g.operands()
	for _, kn := range gemmKernels {
		a, b := kn.layout(coef, val)
		want := New(g.m, g.n)
		want.Fill(-7)
		kn.ref(want, a, b)
		forEachBody(func(body string) {
			got := New(g.m, g.n)
			got.Fill(99)
			kn.tiled(got, a, b)
			if err := sameBits(got, want); err != nil {
				t.Fatalf("%s body=%s %v: %v", kn.name, body, g, err)
			}
		})
	}
}

// The shapes one rank of the numeric trainer runs: [rows,H]x[H,F] and
// [rows,F]x[F,H] (benchmark/probes.go uses the same).
const (
	trainRows = 1024
	trainH    = 128
	trainF    = 64
)

func gemmCases() []gemmCase {
	dims := []int{0, 1, 2, 3, 5, 8, 17, 64, 129}
	var cases []gemmCase
	seed := uint64(1)
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				cases = append(cases, gemmCase{seed: seed, m: m, k: k, n: n, special: seed%2 == 0})
				seed++
			}
		}
	}
	// Every column count up to five 8-lane steps, so each body's vector
	// loop ends on every tail the Go loop finishes.
	for n := 1; n <= 40; n++ {
		cases = append(cases, gemmCase{seed: seed, m: 3, k: 9, n: n, special: n%2 == 0})
		seed++
	}
	for _, special := range []bool{false, true} {
		cases = append(cases,
			gemmCase{seed: seed, m: trainRows, k: trainH, n: trainF, special: special},
			gemmCase{seed: seed + 1, m: trainRows, k: trainF, n: trainH, special: special},
			gemmCase{seed: seed + 2, m: 37, k: 41, n: 43, zeroPer256: 128, special: special})
		seed += 3
	}
	return cases
}

// TestGEMMMatchesReference pins every output bit of the tiled kernels, with
// each column-loop body, to the plain loops over shapes that hit every
// row, column and k tail, with zeros in A and non-finite values in B.
//
// It also states the one semantic difference between the kernels outright:
// MatMulInto and TMatMulInto skip a zero coefficient, so 0·Inf adds
// nothing; MatMulTInto accumulates it as NaN. Trainer bits depend on both,
// so neither may be "cleaned up".
func TestGEMMMatchesReference(t *testing.T) {
	for _, g := range gemmCases() {
		checkGEMMCase(t, g)
	}

	inf := float32(math.Inf(1))
	coef := FromSlice([]float32{0, 3}, 1, 2)
	val := FromSlice([]float32{inf, 2}, 2, 1)
	c := New(1, 1)
	if MatMulInto(c, coef, val); c.Data[0] != 6 {
		t.Errorf("MatMulInto: 0·Inf + 3·2 = %v, want 6", c.Data[0])
	}
	if TMatMulInto(c, transpose(coef), val); c.Data[0] != 6 {
		t.Errorf("TMatMulInto: 0·Inf + 3·2 = %v, want 6", c.Data[0])
	}
	if MatMulTInto(c, coef, transpose(val)); c.Data[0] == c.Data[0] {
		t.Errorf("MatMulTInto: 0·Inf + 3·2 = %v, want NaN", c.Data[0])
	}
	// A skipped term leaves +0, and −0 products still sum to +0.
	MatMulInto(c, FromSlice([]float32{0, 1}, 1, 2), FromSlice([]float32{5, negZero}, 2, 1))
	if math.Float32bits(c.Data[0]) != 0 {
		t.Errorf("MatMulInto: 0·5 + 1·(−0) has bits %#08x, want +0", math.Float32bits(c.Data[0]))
	}
}

// FuzzGEMMMatchesReference drives the same comparison from arbitrary
// shapes, seeds and zero densities; dimensions are folded into 0..160
// rather than rejected, so every input runs the kernels.
func FuzzGEMMMatchesReference(f *testing.F) {
	for _, g := range gemmCases() {
		if g.m <= 160 {
			f.Add(g.seed, g.m, g.k, g.n, g.zeroPer256, g.special)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, m, k, n, zeroPer256 int, special bool) {
		mod := func(v, n int) int { return ((v % n) + n) % n }
		checkGEMMCase(t, gemmCase{seed: seed, m: mod(m, 161), k: mod(k, 161), n: mod(n, 161),
			zeroPer256: mod(zeroPer256, 257), special: special})
	})
}

// TestGEMMStopAndResume drives axpyGEMM over one worker's rows [lo,hi),
// with lo odd and an odd row count, and puts zero coefficients in the
// first, a middle and the last row pair of the range, in both rows of a
// pair, in adjacent pairs and in the odd last row and k%4 tail. That is
// where axpy4x2Rows stops early when zeros are skipped, and where
// axpyGEMM runs the stopped pair term by term and resumes after it. Each
// zero at step p meets +Inf in row p of B, in a column of its own (a
// lane column or a tail column), so a body that runs the pair instead of
// stopping turns that output NaN where the reference skips the term, and
// one that stops where zeros are kept (MatMulTInto) leaves it finite
// where the reference is NaN. Both strides of A are covered, and rows
// outside [lo,hi) must keep their fill.
func TestGEMMStopAndResume(t *testing.T) {
	const lo, hi, m, k = 3, 14, 16, 13 // pairs (3,4)..(11,12), odd row 13; steps 0..11 in quads, 12 the tail
	type spot struct{ row, step int }
	scenarios := map[string][]spot{
		"first pair":        {{lo, 0}},
		"first pair row 2":  {{lo + 1, 6}},
		"middle pair":       {{7, 3}, {8, 9}},
		"last pair":         {{hi - 3, 10}, {hi - 2, 1}},
		"first middle last": {{lo, 5}, {7, 6}, {hi - 2, 4}},
		"adjacent pairs":    {{9, 2}, {11, 1}},
		"odd row and tail":  {{hi - 1, 2}, {5, k - 1}},
	}
	layouts := []struct {
		name      string
		ref       func(c, a, b *Tensor)
		transA    bool
		skipZeros bool
	}{
		{"MatMulInto", matMulRef, false, true},
		{"MatMulTInto", matMulTRef, false, false},
		{"TMatMulInto", tMatMulRef, true, true},
	}
	for _, n := range []int{8, 11, 64, 67} {
		for name, spots := range scenarios {
			rng := NewRNG(uint64(n))
			coef, val := Randn(rng, 1, m, k), Randn(rng, 1, k, n)
			for s, z := range spots {
				coef.Data[z.row*k+z.step] = []float32{0, negZero}[s%2]
				val.Data[z.step*n+[]int{0, n - 1, n / 2}[s]] = float32(math.Inf(1))
			}
			for _, l := range layouts {
				a, si, sp := coef, k, 1
				if l.transA {
					a, si, sp = transpose(coef), 1, m
				}
				b := val
				if l.name == "MatMulTInto" {
					b = transpose(val)
				}
				want := New(m, n)
				l.ref(want, a, b)
				forEachBody(func(body string) {
					got := New(m, n)
					got.Fill(99)
					axpyGEMM(got.Data, a.Data, val.Data, lo, hi, k, n, si, sp, l.skipZeros)
					for idx, v := range got.Data {
						w := want.Data[idx]
						if i := idx / n; i < lo || i >= hi {
							w = 99
						}
						if math.Float32bits(v) != math.Float32bits(w) {
							t.Fatalf("%s body=%s n=%d %s: row %d col %d: got %v (%#08x), want %v (%#08x)",
								l.name, body, n, name, idx/n, idx%n, v, math.Float32bits(v), w, math.Float32bits(w))
						}
					}
				})
			}
		}
	}
}

// TestGEMMBitsIndependentOfWorkers requires the same bits, with each
// column-loop body, however ParallelFor cuts the rows (a row paired with a
// neighbour, left as a tail, or all in one chunk) and wherever the operands
// start inside a larger buffer, as the per-expert views of
// SequentialGEMMInto do.
func TestGEMMBitsIndependentOfWorkers(t *testing.T) {
	defer SetMaxWorkers(int(maxWorkers.Load()))
	// view copies t into a buffer one row longer and returns the copy
	// that starts at row 1 of it.
	view := func(t *Tensor) *Tensor {
		r, c := t.Rows(), t.Cols()
		buf := make([]float32, (r+2)*c)
		copy(buf[c:], t.Data)
		return FromSlice(buf[c:(r+1)*c], r, c)
	}
	for _, g := range []gemmCase{
		{seed: 1, m: 129, k: 67, n: 33},
		{seed: 2, m: 67, k: 129, n: 64, zeroPer256: 40},
		{seed: 3, m: 37, k: 8, n: 5, special: true},
	} {
		coef, val := g.operands()
		for _, kn := range gemmKernels {
			a, b := kn.layout(coef, val)
			SetMaxWorkers(1)
			want := New(g.m, g.n)
			kn.ref(want, a, b)
			forEachBody(func(body string) {
				for _, workers := range []int{1, 2, 3, 7} {
					SetMaxWorkers(workers)
					got := view(New(g.m, g.n))
					got.Fill(99)
					kn.tiled(got, view(a), view(b))
					if err := sameBits(got, want); err != nil {
						t.Fatalf("%s body=%s %v workers=%d: %v", kn.name, body, g, workers, err)
					}
				}
			})
		}
	}
}

// TestMatMulTIntoConcurrentCalls runs MatMulTInto from several goroutines
// at once over shapes of different sizes, so calls in flight together
// must each hold their own transposed-B buffer, and a buffer is reused
// by calls of other shapes in its size bucket.
func TestMatMulTIntoConcurrentCalls(t *testing.T) {
	cases := []gemmCase{
		{seed: 1, m: 33, k: 17, n: 9},
		{seed: 2, m: 8, k: 129, n: 64, special: true},
		{seed: 3, m: 65, k: 5, n: 3},
		{seed: 4, m: 17, k: 64, n: 129, zeroPer256: 60},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				g := cases[(w+iter)%len(cases)]
				coef, val := g.operands()
				a, b := coef, transpose(val)
				got, want := New(g.m, g.n), New(g.m, g.n)
				MatMulTInto(got, a, b)
				matMulTRef(want, a, b)
				if err := sameBits(got, want); err != nil {
					t.Errorf("goroutine %d %v: %v", w, g, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGEMMAllocsPerCall pins the one allocation a kernel call makes (the
// ParallelFor closure), at the trainer's shapes: the shared body adds
// none, and MatMulTInto's transposed B reuses a pooled buffer.
func TestGEMMAllocsPerCall(t *testing.T) {
	rng := NewRNG(1)
	x := Randn(rng, 1, trainRows, trainH)
	w1 := Randn(rng, 1, trainH, trainF)
	dy := Randn(rng, 1, trainRows, trainF)
	hid, dx, dw := New(trainRows, trainF), New(trainRows, trainH), New(trainH, trainF)
	for name, call := range map[string]func(){
		"MatMulInto":  func() { MatMulInto(hid, x, w1) },
		"MatMulTInto": func() { MatMulTInto(dx, dy, w1) },
		"TMatMulInto": func() { TMatMulInto(dw, x, dy) },
	} {
		if got := testing.AllocsPerRun(10, call); got != 1 {
			t.Errorf("%s: %v allocs per call, want 1", name, got)
		}
	}
}
