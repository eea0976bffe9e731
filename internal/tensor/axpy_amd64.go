//go:build amd64

package tensor

// axpy4x2Vec runs axpy4x2 over columns [0, len(c0)&^3) four lanes at a
// time and returns that column count; axpy4x2 finishes the tail. The
// other slices must be at least len(c0) long.
//
//go:noescape
func axpy4x2Vec(c0, c1, b0, b1, b2, b3 []float32, x00, x01, x02, x03, x10, x11, x12, x13 float32) int
