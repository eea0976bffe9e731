//go:build amd64

package tensor

import "math/bits"

// geluBlockAVX2 runs gelu over the leading len(pre)&^3 values of pre, at
// most geluBlock of them, four per instruction, bit for bit, and returns
// the groups of four it left unwritten for the Go loop: bit g stands for
// elements 4g..4g+3 (gelu_amd64.s). act must be at least as long as pre.
//
//go:noescape
func geluBlockAVX2(act, pre []float32, grad bool) (flagged uint64)

// mulAVX2 writes dst[i] = a[i]*b[i] over the leading len(dst)&^7
// elements, eight per instruction (gelu_amd64.s). a and b must be at
// least as long as dst.
//
//go:noescape
func mulAVX2(dst, a, b []float32)

// geluVec selects the AVX2 bodies of gelu and mul. It is set once, here,
// from the same CPU and OS check as the GEMM's AVX2 body; the tests clear
// it to run the Go loops alone.
var geluVec = hasAVX2()

// geluBlock is the most elements one geluBlockAVX2 call runs: one bit of
// its flagged mask per group of four.
const geluBlock = 256

// gelu writes out[i] = GeLU(in[i]) and, with grad, in[i] = GeLU′(in[i])
// (out may be in when grad is false). Where geluVec is set the AVX2 body
// runs the leading multiple of four, block by block, and the Go loop the
// groups it flags and the tail.
func gelu(out, in []float32, grad bool) {
	if geluVec {
		for len(in) >= 4 {
			n := min(len(in), geluBlock) &^ 3
			for f := geluBlockAVX2(out[:n], in[:n], grad); f != 0; f &= f - 1 {
				g := 4 * bits.TrailingZeros64(f)
				geluGo(out[g:g+4], in[g:g+4], grad)
			}
			out, in = out[n:], in[n:]
		}
	}
	geluGo(out, in, grad)
}

// mul writes dst[i] = a[i]*b[i]: the AVX2 body runs the leading multiple
// of eight where geluVec is set, and the Go loop the rest.
func mul(dst, a, b []float32) {
	if geluVec {
		n := len(dst) &^ 7
		mulAVX2(dst[:n], a[:n], b[:n])
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	mulGo(dst, a, b)
}
