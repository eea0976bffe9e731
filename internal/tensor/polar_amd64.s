//go:build amd64

#include "textflag.h"

// polarC holds the kernel's constants, each repeated in four lanes so an
// instruction can take it as a 256-bit memory operand. The log constants
// are those of $GOROOT/src/math/log_amd64.s, given here by their bits.
#define C4(off, bits) DATA polarC<>+(off)(SB)/8, $bits; DATA polarC<>+(off+8)(SB)/8, $bits; DATA polarC<>+(off+16)(SB)/8, $bits; DATA polarC<>+(off+24)(SB)/8, $bits

C4(0, 0x000FFFFFFFFFFFFF)   // mantissa mask
C4(32, 0x3FE0000000000000)  // 0.5
C4(64, 0x4330000000000000)  // 2^52
C4(96, 0x43300000000003FE)  // 2^52 + 1022
C4(128, 0x3FE6A09E667F3BCD) // √2/2
C4(160, 0x3FF0000000000000) // 1
C4(192, 0x4000000000000000) // 2
C4(224, 0x3FE5555555555593) // L1
C4(256, 0x3FD999999997FA04) // L2
C4(288, 0x3FD2492494229359) // L3
C4(320, 0x3FCC71C51D8E78AF) // L4
C4(352, 0x3FC7466496CB03DE) // L5
C4(384, 0x3FC39A09D078C69F) // L6
C4(416, 0x3FC2F112DF3E5244) // L7
C4(448, 0x3FE62E42FEE00000) // Ln2Hi
C4(480, 0x3DEA39EF35793C76) // Ln2Lo
C4(512, 0xC000000000000000) // -2
GLOBL polarC<>(SB), RODATA|NOPTR, $544

#define MANT polarC<>+0(SB)
#define HALF polarC<>+32(SB)
#define MAGIC polarC<>+64(SB)
#define MAGICBIAS polarC<>+96(SB)
#define HSQRT2 polarC<>+128(SB)
#define ONE polarC<>+160(SB)
#define TWO polarC<>+192(SB)
#define L1 polarC<>+224(SB)
#define L2 polarC<>+256(SB)
#define L3 polarC<>+288(SB)
#define L4 polarC<>+320(SB)
#define L5 polarC<>+352(SB)
#define L6 polarC<>+384(SB)
#define L7 polarC<>+416(SB)
#define LN2HI polarC<>+448(SB)
#define LN2LO polarC<>+480(SB)
#define MINUS2 polarC<>+512(SB)

// func polarScaleAVX2(s []float64)
//
// Replaces each of the leading len(s)&^3 values x of s, four per
// iteration, with sqrt(-2·log(x)/x) for 0 < x < 1. The log is
// math.Log's amd64 body (log_amd64.s, which has no FMA path) run lane
// for lane: every step below is the packed form of its scalar
// instruction, with the same operands in the same order wherever the
// operation is not commutative, and VADDPD / VSUBPD / VMULPD / VDIVPD /
// VSQRTPD round each lane as their scalar forms do. Two steps are built
// differently with the same result:
//   - k = exponent − 1022 is built without an integer-to-float
//     conversion: the exponent field ORed into the bits of 2^52 is the
//     double 2^52 + e, and subtracting 2^52 + 1022 leaves e − 1022
//     exactly.
//   - log_amd64.s tests f1 with CMPSD predicate 5 (not √2/2 < f1), that
//     is f1 <= √2/2, though its comment says <; VCMPPD predicate 2
//     (f1 <= √2/2) is the same test for the finite f1 here.
// math.Log takes none of its special cases in this range (x is positive,
// finite and at least 2^-104), so no lane needs the scalar body's
// branches.
//
// Registers per iteration: Y0 x, Y1 f1 then f, Y2 k then the result, Y3
// the mask then s, Y4 s2 then t1 then R, Y5 s4 then t2, Y6 scratch.
TEXT ·polarScaleAVX2(SB), NOSPLIT, $0-24
	MOVQ s_base+0(FP), DI
	MOVQ s_len+8(FP), CX
	ANDQ $~3, CX
	XORQ AX, AX

loop:
	CMPQ    AX, CX
	JAE     done
	VMOVUPD (DI)(AX*8), Y0

	// f1, k := math.Frexp(x)
	VANDPD MANT, Y0, Y1
	VORPD  HALF, Y1, Y1
	VPSRLQ $52, Y0, Y2
	VPOR   MAGIC, Y2, Y2
	VSUBPD MAGICBIAS, Y2, Y2

	// if f1 <= √2/2 { k -= 1; f1 *= 2 }
	VCMPPD $2, HSQRT2, Y1, Y3
	VANDPD ONE, Y3, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD ONE, Y3, Y3
	VMULPD Y3, Y1, Y1

	// f := f1 - 1; s := f / (2 + f)
	VSUBPD ONE, Y1, Y1
	VADDPD TWO, Y1, Y3
	VDIVPD Y3, Y1, Y3

	// s2 := s * s; s4 := s2 * s2
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD L7, Y5, Y6
	VADDPD L5, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L3, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L1, Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD L6, Y5, Y6
	VADDPD L4, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L2, Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// hfsq := 0.5 * f * f
	VMULPD HALF, Y1, Y6
	VMULPD Y1, Y6, Y6

	// log = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y6, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD LN2LO, Y2, Y5
	VADDPD Y5, Y3, Y3
	VSUBPD Y3, Y6, Y6
	VSUBPD Y1, Y6, Y6
	VMULPD LN2HI, Y2, Y2
	VSUBPD Y6, Y2, Y2

	// sqrt(-2 * log / x)
	VMULPD  MINUS2, Y2, Y2
	VDIVPD  Y0, Y2, Y2
	VSQRTPD Y2, Y2

	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	RET
