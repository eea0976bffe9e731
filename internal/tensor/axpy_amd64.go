//go:build amd64

package tensor

// axpy4x2Vec runs axpy4x2 over its leading columns and returns their
// count, len(c0)&^7 with the AVX2 body and len(c0)&^3 with the SSE one;
// axpy4x2 finishes the tail. The other slices must be at least len(c0)
// long.
//
//go:noescape
func axpy4x2Vec(c0, c1, b0, b1, b2, b3 []float32, x00, x01, x02, x03, x10, x11, x12, x13 float32) int

// axpyAVX2 selects axpy4x2Vec's AVX2 body. It is set once, here, from the
// CPU's feature bits; the GEMM tests switch it to run both bodies.
var axpyAVX2 = hasAVX2()

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
