package tensor

import (
	"math"
	"slices"
	"testing"
)

// geluBackwardRef is the GeLU backward as it stood before GeLUWithGrad,
// kept verbatim as the bit reference: dx = dy·float32(GeLU′(x)), with its
// own tanh.
func geluBackwardRef(dx, dy, x *Tensor) {
	const c = 0.7978845608028654
	for i, v := range x.Data {
		x := float64(v)
		inner := c * (x + 0.044715*x*x*x)
		th := math.Tanh(inner)
		sech2 := 1 - th*th
		dinner := c * (1 + 3*0.044715*x*x)
		grad := 0.5*(1+th) + 0.5*x*sech2*dinner
		dx.Data[i] = dy.Data[i] * float32(grad)
	}
}

// geluBackward is the backward the trainer runs, into fresh tensors: the
// fused forward saves GeLU′ over a copy of x, and dx = GeLU′ ⊙ dy.
func geluBackward(dy, x *Tensor) *Tensor {
	saved := x.Clone()
	GeLUWithGrad(New(x.Shape()...), saved)
	dx := New(x.Shape()...)
	MulInto(dx, saved, dy)
	return dx
}

// TestGeLUWithGradMatchesReference requires the fused pass's activation
// to equal GeLU's bits and its saved GeLU′ times dy to equal the reference
// backward's bits, at signed zeros, infinities, NaN, subnormals and
// magnitudes from the linear region to deep saturation, against dy values
// of every kind.
func TestGeLUWithGradMatchesReference(t *testing.T) {
	xs := []float32{0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(1), math.Float32frombits(0x00012345), 1.1754942e-38}
	for _, m := range []float32{1e-4, 0.5, 3, 20, 1e4} {
		xs = append(xs, m)
	}
	for _, v := range xs {
		xs = append(xs, -v)
	}
	dys := []float32{1, -0.75, 3.25e7, math.Float32frombits(0x00000321), negZero,
		float32(math.Inf(-1)), float32(math.NaN())}
	var xv, dyv []float32
	for _, x := range xs {
		for _, dy := range dys {
			xv, dyv = append(xv, x), append(dyv, dy)
		}
	}
	x, dy := FromSlice(xv, len(xv)), FromSlice(dyv, len(dyv))

	wantAct := x.Clone()
	GeLU(wantAct)
	wantDx := New(x.Len())
	geluBackwardRef(wantDx, dy, x)

	act, saved := New(x.Len()), x.Clone()
	act.Fill(99)
	GeLUWithGrad(act, saved)
	dx := New(x.Len())
	dx.Fill(-7)
	MulInto(dx, saved, dy)
	for name, pair := range map[string][2]*Tensor{"act": {act, wantAct}, "dx": {dx, wantDx}} {
		if err := sameBits(pair[0], pair[1]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// forEachGeLUBody runs f once per body of gelu and mul this host can run:
// the Go loops, then, where init selected them, the AVX2 bodies. The
// init-time choice is restored afterwards.
func forEachGeLUBody(f func(body string)) {
	host := geluVec
	defer func() { geluVec = host }()
	geluVec = false
	f("go")
	if host {
		geluVec = true
		f("avx2")
	}
}

// checkGeLUBodies runs GeLUWithGrad and GeLU over xs, and MulInto over
// (xs, ys), under every body, and requires the bits of the Go loops: act,
// GeLU′ over pre, GeLU in place and the product. act is eight elements
// longer than pre, and those must stay unwritten.
func checkGeLUBodies(t *testing.T, xs, ys []float32) {
	t.Helper()
	n := len(xs)
	wantAct, wantGrad, wantMul := make([]float32, n), slices.Clone(xs), make([]float32, n)
	geluGo(wantAct, wantGrad, true)
	mulGo(wantMul, xs, ys)
	const sentinel = -12345
	forEachGeLUBody(func(body string) {
		act, pre, fwd := New(n+8), FromSlice(slices.Clone(xs), n), FromSlice(slices.Clone(xs), n)
		act.Fill(sentinel)
		GeLUWithGrad(act, pre)
		GeLU(fwd)
		prod := New(n)
		MulInto(prod, FromSlice(xs, n), FromSlice(ys, n))
		for _, c := range []struct {
			name      string
			got, want []float32
		}{{"act", act.Data[:n], wantAct}, {"GeLU′", pre.Data, wantGrad},
			{"GeLU", fwd.Data, wantAct}, {"MulInto", prod.Data, wantMul}} {
			for i, w := range c.want {
				if g := c.got[i]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("%s body, n=%d: %s[%d] of x=%v (%#08x), y=%#08x: got %#08x, want %#08x",
						body, n, c.name, i, xs[i], math.Float32bits(xs[i]), math.Float32bits(ys[i]),
						math.Float32bits(g), math.Float32bits(w))
				}
			}
		}
		for i, v := range act.Data[n:] {
			if v != sentinel {
				t.Fatalf("%s body, n=%d: act[%d] beyond pre written: %v", body, n, n+i, v)
			}
		}
	})
}

// TestGeLUBodiesEveryNthBitPattern runs every 4099th float32 bit pattern,
// about a million values across every exponent, sign and NaN payload,
// each against a second factor drawn from the same range.
func TestGeLUBodiesEveryNthBitPattern(t *testing.T) {
	var xs, ys []float32
	for u := uint64(0); u < 1<<32; u += 4099 {
		xs = append(xs, math.Float32frombits(uint32(u)))
		ys = append(ys, math.Float32frombits(uint32(u*2654435761>>7)))
	}
	checkGeLUBodies(t, xs, ys)
}

// TestGeLUBodiesAtTanhBranch runs the float32 x within 64 ulps of the
// point where |z| = |√(2/π)·(x + 0.044715·x³)| reaches 0.625, the edge of
// math.tanh's polynomial branch and of the AVX2 body, of both signs.
func TestGeLUBodiesAtTanhBranch(t *testing.T) {
	z := func(b uint32) float64 {
		x := float64(math.Float32frombits(b))
		return geluC * (x + 0.044715*x*x*x)
	}
	lo, hi := math.Float32bits(0.5), math.Float32bits(1) // z(lo) < 0.625 <= z(hi)
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; z(mid) < 0.625 {
			lo = mid
		} else {
			hi = mid
		}
	}
	if z(hi-1) >= 0.625 || z(hi) < 0.625 {
		t.Fatalf("bisection: z(%#08x) = %v, z(%#08x) = %v", hi-1, z(hi-1), hi, z(hi))
	}
	var xs []float32
	for b := hi - 64; b <= hi+64; b++ {
		x := math.Float32frombits(b)
		xs = append(xs, x, -x)
	}
	checkGeLUBodies(t, xs, slices.Clone(xs))
}

// TestGeLUBodiesSpecials runs the inputs outside the AVX2 body's range,
// and its edges: signed zeros, infinities, NaNs (quiet and signalling,
// with payloads), the smallest subnormal and the largest finite values of
// each sign, each next to in-range values and filling a group of four.
func TestGeLUBodiesSpecials(t *testing.T) {
	specials := []float32{0, float32(math.Inf(1)), float32(math.NaN()), 1e-45, 3.4e38, math.MaxFloat32,
		math.Float32frombits(0x7FC12345), math.Float32frombits(0x7F800001), math.Float32frombits(0x00012345)}
	var xs []float32
	for _, v := range specials {
		for _, v := range []float32{v, -v} {
			xs = append(xs, v, 0.25, -0.5, 0.125, v, v, v, v)
		}
	}
	checkGeLUBodies(t, xs, slices.Clone(xs))
}

// TestGeLUBodiesLengths runs lengths around the body's groups of four and
// eight and its 256-element blocks, with an out-of-range value at every
// eleventh element so flagged groups fall everywhere in a block.
func TestGeLUBodiesLengths(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 513} {
		xs, ys := make([]float32, n), make([]float32, n)
		for i := range xs {
			xs[i] = float32(i%29)/16 - 0.875
			if i%11 == 10 {
				xs[i] = 3
			}
			ys[i] = float32(i%7) - 3.5
		}
		checkGeLUBodies(t, xs, ys)
	}
}

// TestMulIntoKeepsFirstNaN requires, in every body, that where both
// factors are NaN the product is a's NaN, quieted, whatever b's payload.
func TestMulIntoKeepsFirstNaN(t *testing.T) {
	const n = 19 // a vector part and a tail
	a, b := New(n), New(n)
	for i := range a.Data {
		a.Data[i] = math.Float32frombits(0x7FA00000 | uint32(i)<<8 | 0x80000000*uint32(i%2))
		b.Data[i] = math.Float32frombits(0x7FC00000 | uint32(n-i))
	}
	forEachGeLUBody(func(body string) {
		dst := New(n)
		MulInto(dst, a, b)
		for i, v := range dst.Data {
			if got, want := math.Float32bits(v), math.Float32bits(a.Data[i])|0x00400000; got != want {
				t.Errorf("%s body: element %d: got %#08x, want a's NaN %#08x", body, i, got, want)
			}
		}
	})
}

func BenchmarkGeLUWithGrad(b *testing.B) {
	rng := NewRNG(1)
	x := Randn(rng, 1, 256, 128)
	dy := Randn(rng, 1, 256, 128)
	pre, act, dx := New(256, 128), New(256, 128), New(256, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre.Copy(x)
		GeLUWithGrad(act, pre)
		MulInto(dx, pre, dy)
	}
}

func BenchmarkGeLU(b *testing.B) {
	x := Randn(NewRNG(1), 1, 256, 128)
	act := New(256, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		act.Copy(x)
		GeLU(act)
	}
}
