//go:build amd64

#include "textflag.h"

// geluK holds the GeLU kernel's constants, each repeated in four lanes so
// an instruction can take it as a 256-bit memory operand. The tanh
// polynomial's are math.tanh's tanhP and tanhQ ($GOROOT/src/math/tanh.go),
// and 3·0.044715 is the constant Go folds in geluGrad, all given here by
// their bits.
#define C4(off, bits) DATA geluK<>+(off)(SB)/8, $bits; DATA geluK<>+(off+8)(SB)/8, $bits; DATA geluK<>+(off+16)(SB)/8, $bits; DATA geluK<>+(off+24)(SB)/8, $bits

C4(0, 0x3FF0000000000000)   // 1
C4(32, 0x3FE0000000000000)  // 0.5
C4(64, 0x3FE9884533D43651)  // geluC = √(2/π)
C4(96, 0x3FA6E4E26D4801F7)  // 0.044715
C4(128, 0x3FC12BA9D1F60179) // 3·0.044715
C4(160, 0x7FFFFFFFFFFFFFFF) // |·| mask
C4(192, 0x3FE4000000000000) // 0.625
C4(224, 0xBFEEDC5BAAFD6F4B) // tanhP[0]
C4(256, 0xC058D26A0E26682D) // tanhP[1]
C4(288, 0xC0993AC030580563) // tanhP[2]
C4(320, 0x405C33F28A581B86) // tanhQ[0]
C4(352, 0x40A176FA0E5535FA) // tanhQ[1]
C4(384, 0x40B2EC102442040C) // tanhQ[2]
GLOBL geluK<>(SB), RODATA|NOPTR, $416

#define ONE geluK<>+0(SB)
#define HALF geluK<>+32(SB)
#define GELUC geluK<>+64(SB)
#define CUBIC geluK<>+96(SB)
#define CUBIC3 geluK<>+128(SB)
#define ABS geluK<>+160(SB)
#define LIMIT geluK<>+192(SB)
#define P0 geluK<>+224(SB)
#define P1 geluK<>+256(SB)
#define P2 geluK<>+288(SB)
#define Q0 geluK<>+320(SB)
#define Q1 geluK<>+352(SB)
#define Q2 geluK<>+384(SB)

// func geluBlockAVX2(act, pre []float32, grad bool) (flagged uint64)
//
// Runs gelu over the leading len(pre)&^3 (at most 256) values of pre,
// four per iteration: act[i] = GeLU(pre[i]) and, with grad, pre[i] =
// GeLU′(pre[i]). Each group of four is widened to float64 and run through
// geluTanh, geluOf and geluGrad (activations.go) with the same operations
// in the same order, then narrowed to float32 as the Go conversions do;
// the operands of the non-commutative steps (the subtraction and the
// division) are in the scalar order, and no step is fused. The tanh is
// math.tanh's rational polynomial, z + z·s·P(s)/Q(s) with s = z·z, the
// branch math.tanh takes for |z| < 0.625. A group in which any lane fails
// |z| < 0.625 (the Exp branch, the ±1 clamp, NaN) is not stored: bit g
// of flagged is set for group g, and the caller runs the Go loop there.
// The Go loop returns ±0 itself at z = ±0 where the polynomial gives +0;
// th enters the results only through 1+th and th·th, so the bits agree.
//
// Registers per group: Y0 x, Y1 z then th, Y2 s, Y3 P then Q then GeLU′,
// Y4 z·s·P then the quotient, Y5 the |z| mask then GeLU, Y6 0.5·x, Y7 1+th,
// Y8 sech², Y9 dinner; Y15 holds 1 throughout.
TEXT ·geluBlockAVX2(SB), NOSPLIT, $0-64
	MOVQ    act_base+0(FP), DI
	MOVQ    pre_base+24(FP), SI
	MOVQ    pre_len+32(FP), CX
	ANDQ    $~3, CX
	MOVBLZX grad+48(FP), DX
	XORQ    AX, AX            // element index
	XORQ    R8, R8            // flagged
	MOVQ    $1, R9            // this group's bit
	VMOVUPD ONE, Y15

loop:
	CMPQ      AX, CX
	JAE       done
	VCVTPS2PD (SI)(AX*4), Y0

	// z := geluC * (x + 0.044715*x*x*x)
	VMULPD CUBIC, Y0, Y1
	VMULPD Y0, Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD Y1, Y0, Y1
	VMULPD GELUC, Y1, Y1

	// Every lane must have |z| < 0.625 (false for NaN).
	VANDPD    ABS, Y1, Y5
	VCMPPD    $1, LIMIT, Y5, Y5
	VMOVMSKPD Y5, BX
	CMPQ      BX, $15
	JNE       flag

	// s := z*z; th := z + z*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2)
	VMULPD Y1, Y1, Y2
	VMULPD P0, Y2, Y3
	VADDPD P1, Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD P2, Y3, Y3
	VMULPD Y2, Y1, Y4
	VMULPD Y3, Y4, Y4
	VADDPD Q0, Y2, Y3
	VMULPD Y2, Y3, Y3
	VADDPD Q1, Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD Q2, Y3, Y3
	VDIVPD Y3, Y4, Y4
	VADDPD Y4, Y1, Y1

	// act = float32(0.5 * x * (1 + th))
	VMULPD     HALF, Y0, Y6
	VADDPD     Y15, Y1, Y7
	VMULPD     Y7, Y6, Y5
	VCVTPD2PSY Y5, X5
	VMOVUPS    X5, (DI)(AX*4)
	TESTQ      DX, DX
	JZ         next

	// pre = float32(0.5*(1+th) + 0.5*x*(1-th*th)*(geluC*(1+3*0.044715*x*x)))
	VMULPD     HALF, Y7, Y7
	VMULPD     Y1, Y1, Y8
	VSUBPD     Y8, Y15, Y8
	VMULPD     CUBIC3, Y0, Y9
	VMULPD     Y0, Y9, Y9
	VADDPD     Y15, Y9, Y9
	VMULPD     GELUC, Y9, Y9
	VMULPD     Y8, Y6, Y6
	VMULPD     Y9, Y6, Y6
	VADDPD     Y6, Y7, Y3
	VCVTPD2PSY Y3, X3
	VMOVUPS    X3, (SI)(AX*4)
	JMP        next

flag:
	ORQ R9, R8

next:
	SHLQ $1, R9
	ADDQ $4, AX
	JMP  loop

done:
	MOVQ R8, flagged+56(FP)
	VZEROUPPER
	RET

// func mulAVX2(dst, a, b []float32)
//
// Writes dst[i] = a[i]*b[i] over the leading len(dst)&^7 elements, eight
// per instruction. a is the first source of VMULPS, so where both factors
// are NaN the product is a's NaN, as in the scalar MULSS into a's register.
TEXT ·mulAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	ANDQ $~7, CX
	XORQ AX, AX

mulLoop:
	CMPQ    AX, CX
	JAE     mulDone
	VMOVUPS (SI)(AX*4), Y0
	VMULPS  (DX)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     mulLoop

mulDone:
	VZEROUPPER
	RET
