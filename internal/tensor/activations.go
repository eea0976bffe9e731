package tensor

import "math"

// GeLU applies the tanh-approximated Gaussian error linear unit in place,
// matching the approximation used throughout transformer FFNs.
func GeLU(t *Tensor) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range t.Data {
		x := float64(v)
		t.Data[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
}

// GeLUBackwardInto computes dX from dY given the forward input x for the
// tanh-approximated GeLU into the preallocated dx, which is overwritten.
func GeLUBackwardInto(dx, dy, x *Tensor) {
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
