//go:build !amd64

package tensor

// axpy4x2Rows is axpy4x2RowsGo here: the Go row loop over axpy4x2's Go
// column loop is the whole body, so it runs every column.
func axpy4x2Rows(c, a, b []float32, i, hi, p, n, si, sp int, keepZeros uint32) (stop int) {
	return axpy4x2RowsGo(c, a, b, i, hi, p, n, si, sp, keepZeros)
}

// axpyBody is the Go row loop, the one body here; the GEMM tests' switch
// has no other to select.
var axpyBody = bodyGo
