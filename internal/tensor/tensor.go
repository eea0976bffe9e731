// Package tensor provides a small, dependency-free dense tensor library
// used as the compute substrate of the X-MoE reproduction. Tensors are
// row-major float32 buffers with explicit shapes. The package supplies the
// primitives the MoE training pipeline needs: parallel blocked matrix
// multiplication, softmax and top-k routing primitives, elementwise
// activations with hand-written backward rules, and deterministic random
// initialisation.
//
// The library stands in for the GPU tensor stacks (PyTorch/ROCm) used by
// the paper: all numeric-mode experiments and the loss-validation training
// runs execute on these tensors.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// tensor; use New or the constructors below to create usable tensors.
type Tensor struct {
	// Data is the backing buffer in row-major order. Exposed so kernels
	// can operate on contiguous rows without per-element call overhead.
	Data  []float32
	shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: make([]float32, n), shape: s}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), append([]int(nil), shape...), n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: data, shape: s}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows returns the leading dimension of a matrix-shaped tensor.
func (t *Tensor) Rows() int {
	if len(t.shape) == 0 {
		return 0
	}
	return t.shape[0]
}

// Cols returns the product of all dimensions after the first, i.e. the
// width of the tensor when viewed as a matrix of Rows() rows.
func (t *Tensor) Cols() int {
	if len(t.shape) == 0 {
		return 0
	}
	c := 1
	for _, d := range t.shape[1:] {
		c *= d
	}
	return c
}

// At returns the element at row i, column j of a matrix-view of t.
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.Cols()+j] }

// Row returns a mutable view of row i of a matrix-view of t.
func (t *Tensor) Row(i int) []float32 {
	c := t.Cols()
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return &Tensor{Data: d, shape: s}
}

// Zero sets all elements of t to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Copy copies src's data into t. Shapes must have equal element counts.
func (t *Tensor) Copy(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: copy size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.Data, src.Data)
}

// Add accumulates other into t elementwise.
func (t *Tensor) Add(other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic(fmt.Sprintf("tensor: add size mismatch %v vs %v", t.shape, other.shape))
	}
	for i, v := range other.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element of t by a.
func (t *Tensor) Scale(a float32) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether t and other have identical shapes and elementwise
// values within tolerance tol.
func (t *Tensor) Equal(other *Tensor, tol float32) bool {
	if len(t.Data) != len(other.Data) || len(t.shape) != len(other.shape) {
		return false
	}
	for i, d := range t.shape {
		if other.shape[i] != d {
			return false
		}
	}
	for i, v := range t.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// String renders a compact description of the tensor.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
