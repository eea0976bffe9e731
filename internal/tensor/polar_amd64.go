//go:build amd64

package tensor

// polarScaleAVX2 runs polarScaleGo over the leading len(s)&^3 values of
// s, four per instruction, bit for bit (polar_amd64.s).
//
//go:noescape
func polarScaleAVX2(s []float64)

// polarVec selects polarScale's AVX2 body. It is set once, here, from
// the same CPU and OS check as the GEMM's AVX2 body; the tests clear it
// to run the Go loop alone.
var polarVec = hasAVX2()

// polarScale replaces each s[i] in (0, 1) with sqrt(-2·log(s[i])/s[i]):
// the AVX2 body runs the leading multiple of four where polarVec is set,
// and the Go loop the rest.
func polarScale(s []float64) {
	if polarVec {
		n := len(s) &^ 3
		polarScaleAVX2(s[:n])
		s = s[n:]
	}
	polarScaleGo(s)
}
