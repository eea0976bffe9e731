//go:build amd64

#include "textflag.h"

// ZEROSTOP jumps to done, stopping the kernel at the current pair, when
// the float32 at addr is +0 or −0: its bits shifted left by one (dropping
// the sign) are zero. NaN and every other value pass.
#define ZEROSTOP(addr) MOVL addr, AX; SHLL $1, AX; JEQ done

// func axpy4x2Rows(c, a, b []float32, i, hi, p, n, si, sp int, keepZeros uint32) (stop int)
//
// One call runs row pairs (i, i+1), (i+2, i+3), ... while the pair fits
// below hi, for the k-quad p..p+3. Per pair it reads the eight
// coefficients, x0q at a[i*si+(p+q)*sp] and x1q one row (si) further,
// stops at the pair (returning its i) if one is ±0 and keepZeros is 0,
// broadcasts them, runs the column loop and advances the C and A
// pointers by two rows. It uses AVX2: axpyGEMM calls it only where
// ·gemmVec is set.
//
// The column loop runs eight lanes in the term order of axpy4x2's Go
// loop: c0 += x00·b0, then x01·b1, x02·b2, x03·b3, each a multiply
// rounded to float32 before its add (no fused multiply-add), and c1
// likewise with x10..x13, with the accumulator as the first source of
// every add and b as the first source of every multiply. Each lane
// therefore computes the scalar loop's bits, NaN payloads included.
//
// Registers across pairs: BX the pair's first row i, DI and SI rows i and
// i+1 of C, R8..R11 rows p..p+3 of B, R12 and R13 the pair's coefficient
// for step p in rows i and i+1 of A, DX the step stride sp and R14 the
// row stride si in bytes. AX and CX are scratch, then the column loop's
// index and end.
TEXT ·axpy4x2Rows(SB), NOSPLIT, $0-136
	MOVQ  i+72(FP), BX
	MOVQ  n+96(FP), CX
	SHLQ  $2, CX
	MOVQ  b_base+48(FP), R8
	MOVQ  p+88(FP), AX
	IMULQ CX, AX
	ADDQ  AX, R8
	LEAQ  (R8)(CX*1), R9
	LEAQ  (R9)(CX*1), R10
	LEAQ  (R10)(CX*1), R11
	MOVQ  c_base+0(FP), DI
	MOVQ  BX, AX
	IMULQ CX, AX
	ADDQ  AX, DI
	LEAQ  (DI)(CX*1), SI
	MOVQ  sp+112(FP), DX
	SHLQ  $2, DX
	MOVQ  si+104(FP), R14
	SHLQ  $2, R14
	MOVQ  a_base+24(FP), R12
	MOVQ  BX, AX
	IMULQ R14, AX
	ADDQ  AX, R12
	MOVQ  p+88(FP), AX
	IMULQ DX, AX
	ADDQ  AX, R12

pair:
	LEAQ 2(BX), AX
	CMPQ AX, hi+80(FP)
	JGT  done
	LEAQ (R12)(R14*1), R13
	CMPL keepZeros+120(FP), $0
	JNE  coefs
	LEAQ (R12)(DX*2), CX
	ZEROSTOP((R12))
	ZEROSTOP((R12)(DX*1))
	ZEROSTOP((CX))
	ZEROSTOP((CX)(DX*1))
	LEAQ (R13)(DX*2), CX
	ZEROSTOP((R13))
	ZEROSTOP((R13)(DX*1))
	ZEROSTOP((CX))
	ZEROSTOP((CX)(DX*1))

coefs:
	// AX and CX point at step p+2 of rows i and i+1.
	LEAQ (R12)(DX*2), AX
	LEAQ (R13)(DX*2), CX

	// Eight columns per iteration. Broadcast the eight coefficients into
	// Y7..Y14.
	VBROADCASTSS (R12), Y7
	VBROADCASTSS (R12)(DX*1), Y8
	VBROADCASTSS (AX), Y9
	VBROADCASTSS (AX)(DX*1), Y10
	VBROADCASTSS (R13), Y11
	VBROADCASTSS (R13)(DX*1), Y12
	VBROADCASTSS (CX), Y13
	VBROADCASTSS (CX)(DX*1), Y14
	MOVQ         n+96(FP), CX
	ANDQ         $~7, CX
	XORQ         AX, AX

loop8:
	CMPQ    AX, CX
	JAE     next
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

	// Advance C by two rows (2·n·4 bytes) and A by two rows (2·si·4).
next:
	MOVQ n+96(FP), AX
	SHLQ $3, AX
	ADDQ AX, DI
	ADDQ AX, SI
	LEAQ (R12)(R14*2), R12
	ADDQ $2, BX
	JMP  pair

done:
	MOVQ BX, stop+128(FP)
	VZEROUPPER
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
