//go:build !amd64

package tensor

// axpy4x2Rows is axpy4x2RowsGo here, so axpyGEMM compiles; with gemmVec
// false it never calls it.
func axpy4x2Rows(c, a, b []float32, i, hi, p, n, si, sp int, keepZeros uint32) (stop int) {
	return axpy4x2RowsGo(c, a, b, i, hi, p, n, si, sp, keepZeros)
}

// gemmVec is false here; the GEMM tests' switch has no other body to
// select.
var gemmVec = false
