package tensor

import (
	"math"
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
