#include "textflag.h"

// The AVX-512 middle of the content kernels (content.go): a zmm
// register holds eight consecutive words, and each loop iteration mixes
// four registers, 256 bytes. contentWord, eight lanes at a time, is
//
//	VPMULLQ C1; VPSRLQ 32; VPXORQ; VPMULLQ C2; VPSRLQ 32; VPXORQ
//
// over an index vector k..k+7, except that the first multiply is
// strength-reduced: products are taken mod 2^64, so (k+8)*C1 is
// k*C1 + 8*C1, and the loop carries the products k*C1..(k+7)*C1 and
// advances them by an add. VPMULLQ is the expensive instruction, and
// one per block instead of two more than doubles the kernels' speed
// (DESIGN.md §9).
//
// Registers: Z0 the products of the next register's indices, Z1-Z3
// those of the three after it, Z4-Z7 the mixed words, Z8-Z11 scratch
// for the shifted halves, Z28 one register's advance (8*C1), Z29 one
// iteration's (32*C1), Z31 the second multiplier.

// lanes is the vector of lane offsets 0..7 added to k.
DATA lanes<>+0x00(SB)/8, $0
DATA lanes<>+0x08(SB)/8, $1
DATA lanes<>+0x10(SB)/8, $2
DATA lanes<>+0x18(SB)/8, $3
DATA lanes<>+0x20(SB)/8, $4
DATA lanes<>+0x28(SB)/8, $5
DATA lanes<>+0x30(SB)/8, $6
DATA lanes<>+0x38(SB)/8, $7
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// SETUP loads the constants and the first products from k in AX.
#define SETUP \
	VPBROADCASTQ AX, Z0; \
	VPADDQ       lanes<>(SB), Z0, Z0; \
	MOVQ         $0x9e3779b97f4a7c15, AX; \
	VPBROADCASTQ AX, Z28; \
	VPMULLQ      Z28, Z0, Z0; \
	SHLQ         $3, AX; \
	VPBROADCASTQ AX, Z28; \
	SHLQ         $2, AX; \
	VPBROADCASTQ AX, Z29; \
	MOVQ         $0xd6e8feb86659fd93, AX; \
	VPBROADCASTQ AX, Z31

// MIX sets out to contentWord of each lane, given the lane's k*C1 in
// prod, using tmp.
#define MIX(prod, out, tmp) \
	VPSRLQ  $32, prod, tmp; \
	VPXORQ  tmp, prod, out; \
	VPMULLQ Z31, out, out; \
	VPSRLQ  $32, out, tmp; \
	VPXORQ  tmp, out, out

// MIX4 mixes the four registers of one iteration, Z0..Z3 into Z4..Z7.
#define MIX4 \
	VPADDQ Z28, Z0, Z1; \
	VPADDQ Z28, Z1, Z2; \
	VPADDQ Z28, Z2, Z3; \
	MIX(Z0, Z4, Z8); \
	MIX(Z1, Z5, Z9); \
	MIX(Z2, Z6, Z10); \
	MIX(Z3, Z7, Z11)

// func fillBlocks(p *byte, blocks int, k uint64)
TEXT ·fillBlocks(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ blocks+8(FP), CX
	MOVQ k+16(FP), AX
	SETUP

fill4:
	CMPQ CX, $4
	JLT  fill1
	MIX4
	VMOVDQU64 Z4, 0(DI)
	VMOVDQU64 Z5, 64(DI)
	VMOVDQU64 Z6, 128(DI)
	VMOVDQU64 Z7, 192(DI)
	VPADDQ    Z29, Z0, Z0
	ADDQ      $256, DI
	SUBQ      $4, CX
	JMP       fill4

fill1:
	TESTQ CX, CX
	JZ    filled
	MIX(Z0, Z4, Z8)
	VMOVDQU64 Z4, 0(DI)
	VPADDQ    Z28, Z0, Z0
	ADDQ      $64, DI
	DECQ      CX
	JMP       fill1

filled:
	VZEROUPPER
	RET

// func checkBlocks(p *byte, blocks int, k uint64) bool
TEXT ·checkBlocks(SB), NOSPLIT, $0-25
	MOVQ p+0(FP), DI
	MOVQ blocks+8(FP), CX
	MOVQ k+16(FP), AX
	SETUP

check4:
	CMPQ CX, $4
	JLT  check1
	MIX4
	VPXORQ   0(DI), Z4, Z4
	VPXORQ   64(DI), Z5, Z5
	VPXORQ   128(DI), Z6, Z6
	VPXORQ   192(DI), Z7, Z7
	VPORQ    Z5, Z4, Z4
	VPORQ    Z7, Z6, Z6
	VPORQ    Z6, Z4, Z4
	VPTESTMQ Z4, Z4, K1
	KORTESTB K1, K1
	JNZ      differs
	VPADDQ   Z29, Z0, Z0
	ADDQ     $256, DI
	SUBQ     $4, CX
	JMP      check4

check1:
	TESTQ CX, CX
	JZ    same
	MIX(Z0, Z4, Z8)
	VPXORQ   0(DI), Z4, Z4
	VPTESTMQ Z4, Z4, K1
	KORTESTB K1, K1
	JNZ      differs
	VPADDQ   Z28, Z0, Z0
	ADDQ     $64, DI
	DECQ     CX
	JMP      check1

same:
	VZEROUPPER
	MOVB $1, ret+24(FP)
	RET

differs:
	VZEROUPPER
	MOVB $0, ret+24(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET
