//go:build amd64

#include "textflag.h"

// func axpy4x2Vec(c0, c1, b0, b1, b2, b3 []float32, x00, x01, x02, x03, x10, x11, x12, x13 float32) int
//
// Four columns per iteration, in the term order of axpy4x2's Go loop:
// c0 += x00·b0, then x01·b1, x02·b2, x03·b3, each a MULPS rounded to
// float32 before its ADDPS (no fused multiply-add), and c1 likewise with
// x10..x13. Each lane therefore computes the scalar loop's bits.
TEXT ·axpy4x2Vec(SB), NOSPLIT, $0-184
	MOVQ c0_base+0(FP), DI
	MOVQ c0_len+8(FP), CX
	MOVQ c1_base+24(FP), SI
	MOVQ b0_base+48(FP), R8
	MOVQ b1_base+72(FP), R9
	MOVQ b2_base+96(FP), R10
	MOVQ b3_base+120(FP), R11

	// Broadcast the eight coefficients into X7..X14.
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
	XORQ AX, AX

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
