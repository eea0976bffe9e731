package tensor

import "math"

// The tanh-approximated Gaussian error linear unit of transformer FFNs,
// GeLU(x) = 0.5·x·(1 + th) with th = tanh(√(2/π)·(x + 0.044715·x³)). Its
// derivative needs the same th, so a forward pass that keeps state for
// the backward computes both from one tanh (GeLUWithGrad) and the backward
// is one multiply (MulInto). The expressions live in geluTanh, geluOf and
// geluGrad only: the float64 operation sequence inside them is what the
// trainer's bits are pinned to.

const geluC = 0.7978845608028654 // √(2/π)

// geluTanh returns th for x.
func geluTanh(x float64) float64 {
	return math.Tanh(geluC * (x + 0.044715*x*x*x))
}

// geluOf returns GeLU(x) given th = geluTanh(x).
func geluOf(x, th float64) float32 {
	return float32(0.5 * x * (1 + th))
}

// geluGrad returns GeLU′(x) given th = geluTanh(x), rounded to float32:
// the factor the backward multiplies dY by.
func geluGrad(x, th float64) float32 {
	sech2 := 1 - th*th
	dinner := geluC * (1 + 3*0.044715*x*x)
	return float32(0.5*(1+th) + 0.5*x*sech2*dinner)
}

// GeLU applies GeLU in place.
func GeLU(t *Tensor) { gelu(t.Data, t.Data, false) }

// GeLUWithGrad writes act = GeLU(pre) and overwrites pre with GeLU′(pre),
// one tanh per element. act equals GeLU over a copy of pre bit for bit,
// and MulInto(dx, pre, dy) afterwards is the GeLU backward. On amd64 with
// AVX2 both run four elements per instruction (gelu_amd64.s), bit for bit
// the Go loop.
func GeLUWithGrad(act, pre *Tensor) { gelu(act.Data[:len(pre.Data)], pre.Data, true) }

// geluGo is gelu's Go loop: out[i] = GeLU(in[i]) and, with grad, in[i] =
// GeLU′(in[i]), each from one tanh.
func geluGo(out, in []float32, grad bool) {
	out = out[:len(in)]
	for i, v := range in {
		x := float64(v)
		th := geluTanh(x)
		out[i] = geluOf(x, th)
		if grad {
			in[i] = geluGrad(x, th)
		}
	}
}

// MulInto writes the element-wise product a⊙b into the preallocated dst,
// which is overwritten. Where both factors are NaN the product carries
// a's NaN on amd64, as a scalar product computed into a's register does.
func MulInto(dst, a, b *Tensor) { mul(dst.Data, a.Data, b.Data) }

// mulGo is mul's Go loop.
func mulGo(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}
