//go:build amd64

#include "textflag.h"

// func axpy4x2Vec(c0, c1, b0, b1, b2, b3 []float32, x00, x01, x02, x03, x10, x11, x12, x13 float32) int
//
// Two bodies, one lane width each, chosen by ·axpyAVX2 (set at init where
// the CPU and OS support AVX2). Both run in the term order of axpy4x2's Go
// loop: c0 += x00·b0, then x01·b1, x02·b2, x03·b3, each a multiply rounded
// to float32 before its add (no fused multiply-add), and c1 likewise with
// x10..x13, with the accumulator as the first source of every add and b as
// the first source of every multiply. Each lane therefore computes the
// scalar loop's bits, NaN payloads included.
TEXT ·axpy4x2Vec(SB), NOSPLIT, $0-184
	MOVQ c0_base+0(FP), DI
	MOVQ c0_len+8(FP), CX
	MOVQ c1_base+24(FP), SI
	MOVQ b0_base+48(FP), R8
	MOVQ b1_base+72(FP), R9
	MOVQ b2_base+96(FP), R10
	MOVQ b3_base+120(FP), R11
	XORQ AX, AX
	CMPB ·axpyAVX2(SB), $0
	JNE  avx2

	// SSE: four columns per iteration. Broadcast the eight coefficients
	// into X7..X14.
	MOVSS  x00+144(FP), X7
	SHUFPS $0, X7, X7
	MOVSS  x01+148(FP), X8
	SHUFPS $0, X8, X8
	MOVSS  x02+152(FP), X9
	SHUFPS $0, X9, X9
	MOVSS  x03+156(FP), X10
	SHUFPS $0, X10, X10
	MOVSS  x10+160(FP), X11
	SHUFPS $0, X11, X11
	MOVSS  x11+164(FP), X12
	SHUFPS $0, X12, X12
	MOVSS  x12+168(FP), X13
	SHUFPS $0, X13, X13
	MOVSS  x13+172(FP), X14
	SHUFPS $0, X14, X14

	ANDQ $~3, CX

loop:
	CMPQ AX, CX
	JAE  done
	MOVUPS (R8)(AX*4), X0
	MOVUPS (R9)(AX*4), X1
	MOVUPS (R10)(AX*4), X2
	MOVUPS (R11)(AX*4), X3

	MOVUPS (DI)(AX*4), X4
	MOVAPS X0, X6
	MULPS  X7, X6
	ADDPS  X6, X4
	MOVAPS X1, X6
	MULPS  X8, X6
	ADDPS  X6, X4
	MOVAPS X2, X6
	MULPS  X9, X6
	ADDPS  X6, X4
	MOVAPS X3, X6
	MULPS  X10, X6
	ADDPS  X6, X4
	MOVUPS X4, (DI)(AX*4)

	MOVUPS (SI)(AX*4), X5
	MULPS  X11, X0
	ADDPS  X0, X5
	MULPS  X12, X1
	ADDPS  X1, X5
	MULPS  X13, X2
	ADDPS  X2, X5
	MULPS  X14, X3
	ADDPS  X3, X5
	MOVUPS X5, (SI)(AX*4)

	ADDQ $4, AX
	JMP  loop

done:
	MOVQ CX, ret+176(FP)
	RET

	// AVX2: eight columns per iteration, the SSE body's operations on Y
	// registers in VEX three-operand form.
avx2:
	VBROADCASTSS x00+144(FP), Y7
	VBROADCASTSS x01+148(FP), Y8
	VBROADCASTSS x02+152(FP), Y9
	VBROADCASTSS x03+156(FP), Y10
	VBROADCASTSS x10+160(FP), Y11
	VBROADCASTSS x11+164(FP), Y12
	VBROADCASTSS x12+168(FP), Y13
	VBROADCASTSS x13+172(FP), Y14
	ANDQ         $~7, CX

loop8:
	CMPQ    AX, CX
	JAE     done8
	VMOVUPS (R8)(AX*4), Y0
	VMOVUPS (R9)(AX*4), Y1
	VMOVUPS (R10)(AX*4), Y2
	VMOVUPS (R11)(AX*4), Y3

	VMOVUPS (DI)(AX*4), Y4
	VMULPS  Y7, Y0, Y6
	VADDPS  Y6, Y4, Y4
	VMULPS  Y8, Y1, Y6
	VADDPS  Y6, Y4, Y4
	VMULPS  Y9, Y2, Y6
	VADDPS  Y6, Y4, Y4
	VMULPS  Y10, Y3, Y6
	VADDPS  Y6, Y4, Y4
	VMOVUPS Y4, (DI)(AX*4)

	VMOVUPS (SI)(AX*4), Y5
	VMULPS  Y11, Y0, Y0
	VADDPS  Y0, Y5, Y5
	VMULPS  Y12, Y1, Y1
	VADDPS  Y1, Y5, Y5
	VMULPS  Y13, Y2, Y2
	VADDPS  Y2, Y5, Y5
	VMULPS  Y14, Y3, Y3
	VADDPS  Y3, Y5, Y5
	VMOVUPS Y5, (SI)(AX*4)

	ADDQ $8, AX
	JMP  loop8

done8:
	VZEROUPPER
	MOVQ CX, ret+176(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
