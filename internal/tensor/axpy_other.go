//go:build !amd64

package tensor

// axpy4x2Vec handles no columns here: axpy4x2's Go loop is the whole
// body.
func axpy4x2Vec(c0, c1, b0, b1, b2, b3 []float32, x00, x01, x02, x03, x10, x11, x12, x13 float32) int {
	return 0
}
