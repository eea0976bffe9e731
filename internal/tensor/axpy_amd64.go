//go:build amd64

package tensor

// axpy4x2Rows runs axpy4x2 over the row pairs (i, i+1), (i+2, i+3), ...
// of C for the k-quad p..p+3, one call for the whole run: it reads each
// pair's eight coefficients a[r*si+(p+q)*sp] (r = i, i+1; q = 0..3) and
// adds q's scaled row of B to both rows of C over the leading n&^7
// columns, eight per AVX2 instruction; axpyGEMM finishes the tail. It
// returns the first pair it did not run: the first with stop+2 > hi, or,
// unless keepZeros is set, the first pair holding a ±0 coefficient (the
// integer test bits<<1 == 0, so NaN does not stop it).
// The kernel checks no bounds: axpyGEMM checks the run's last indices of
// c, a and b before the first call, and calls it only where gemmVec is
// set.
//
//go:noescape
func axpy4x2Rows(c, a, b []float32, i, hi, p, n, si, sp int, keepZeros uint32) (stop int)

// gemmVec selects axpyGEMM's AVX2 body (axpy4x2Rows). It is set once,
// here, from the CPU's and OS's feature bits; the tests clear it to run
// the Go row loop alone.
var gemmVec = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0's SSE and AVX
// state bits enabled).
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
