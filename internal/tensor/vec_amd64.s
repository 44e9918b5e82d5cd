//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// AVX2 + FMA kernels behind vec_amd64.go (DESIGN.md §12). Every kernel puts
// *independent* reduction chains in the vector lanes and never splits one
// chain across lanes, and float32 arithmetic is a separate VMULPS and VADDPS
// (no fused multiply-add), so each lane performs exactly the operations of
// the scalar Go loop in the same order: results are bit-identical for finite
// inputs. Row and column tails stay in Go; no kernel reads past its slice.
// Every routine ends in VZEROUPPER.

// func cpuHasAVX2FMA() bool
//
// AVX2 ∧ FMA ∧ OS-saved YMM state: with FMA and AVX this is the predicate
// under which package math takes archExp's FMA path, which expSumAVX2
// replicates.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18001000, CX // FMA (12), OSXSAVE (27), AVX (28)
	CMPL CX, $0x18001000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state saved by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// DOT8CHUNK adds one 4-channel chunk (byte offset AX) of the eight rows at
// R8..R15 into the eight dot products of Y0, x at SI. Lanes are rows: the
// chunk is loaded as (row k | row k+4), transposed inside the 128-bit lanes
// (unpack gives a0 b0 a1 b1 / a2 b2 a3 b3, the shuffles one channel of rows
// 0-3 | 4-7 each), and the four channels are added in ascending order, so
// every lane runs its row's scalar loop. Clobbers Y1-Y9.
#define DOT8CHUNK \
	VMOVUPS     (R8)(AX*1), X1; \
	VINSERTF128 $1, (R12)(AX*1), Y1, Y1; \
	VMOVUPS     (R9)(AX*1), X2; \
	VINSERTF128 $1, (R13)(AX*1), Y2, Y2; \
	VMOVUPS     (R10)(AX*1), X3; \
	VINSERTF128 $1, (R14)(AX*1), Y3, Y3; \
	VMOVUPS     (R11)(AX*1), X4; \
	VINSERTF128 $1, (R15)(AX*1), Y4, Y4; \
	VUNPCKLPS   Y2, Y1, Y5; \
	VUNPCKHPS   Y2, Y1, Y6; \
	VUNPCKLPS   Y4, Y3, Y7; \
	VUNPCKHPS   Y4, Y3, Y8; \
	VSHUFPS     $0x44, Y7, Y5, Y1; \
	VSHUFPS     $0xEE, Y7, Y5, Y2; \
	VSHUFPS     $0x44, Y8, Y6, Y3; \
	VSHUFPS     $0xEE, Y8, Y6, Y4; \
	VBROADCASTSS (SI)(AX*1), Y9; \
	VMULPS      Y1, Y9, Y1; \
	VADDPS      Y1, Y0, Y0; \
	VBROADCASTSS 4(SI)(AX*1), Y9; \
	VMULPS      Y2, Y9, Y2; \
	VADDPS      Y2, Y0, Y0; \
	VBROADCASTSS 8(SI)(AX*1), Y9; \
	VMULPS      Y3, Y9, Y3; \
	VADDPS      Y3, Y0, Y0; \
	VBROADCASTSS 12(SI)(AX*1), Y9; \
	VMULPS      Y4, Y9, Y4; \
	VADDPS      Y4, Y0, Y0

// func dotRowsAVX2(dst, x, rows *float32, m, d int, scale float32)
//
// dst[r] = scale·<x, rows[r·d : (r+1)·d]> for r in [0, m); m%8 == 0, m > 0.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-44
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ m+24(FP), BX
	MOVQ d+32(FP), CX
	SHLQ $2, CX
	VBROADCASTSS scale+40(FP), Y10
group:
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10
	LEAQ (R10)(CX*1), R11
	LEAQ (R11)(CX*1), R12
	LEAQ (R12)(CX*1), R13
	LEAQ (R13)(CX*1), R14
	LEAQ (R14)(CX*1), R15
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
chunk:
	DOT8CHUNK
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  chunk
	VMULPS  Y10, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R15)(CX*1), R8
	SUBQ    $8, BX
	JGT     group
	VZEROUPPER
	RET

// func dotRowsIdxAVX2(dst, x, rows *float32, idx *int, m, base, d int, scale float32)
//
// dst[i] = scale·<x, row idx[i]-base of rows> for i in [0, m); m%8 == 0,
// m > 0. The caller has checked every index.
TEXT ·dotRowsIdxAVX2(SB), NOSPLIT, $0-60
	// ROWPTR sets reg to the address of row idx[k] - base: DX walks the index
	// list, CX is the row size in bytes.
#define ROWPTR(k, reg) \
	MOVQ  (k*8)(DX), reg; \
	SUBQ  base+40(FP), reg; \
	IMULQ CX, reg; \
	ADDQ  rows+16(FP), reg

	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ idx+24(FP), DX
	MOVQ m+32(FP), BX
	MOVQ d+48(FP), CX
	SHLQ $2, CX
	VBROADCASTSS scale+56(FP), Y10
group:
	ROWPTR(0, R8)
	ROWPTR(1, R9)
	ROWPTR(2, R10)
	ROWPTR(3, R11)
	ROWPTR(4, R12)
	ROWPTR(5, R13)
	ROWPTR(6, R14)
	ROWPTR(7, R15)
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
chunk:
	DOT8CHUNK
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  chunk
	VMULPS  Y10, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $64, DX
	SUBQ    $8, BX
	JGT     group
	VZEROUPPER
	RET

// The axpy-rows kernels compute out[j] += w[i]·row_i[j] for rows i ascending.
// Lanes are output channels: 32, 16 or 8 of them are held in registers while
// every row streams past, so each out[j] adds its products in row order.
// Register use: DI out, CX channels left (n%8 == 0), SI w, BX m (> 0),
// DX rows (advanced with DI), R8 row stride in bytes, R9 current row,
// AX row counter, R12 the next row of a sequential walk; the index variant
// reads the row number from R10[AX], less R11. AXPYROWS is the whole loop
// nest, the two kernels differing only in ROW, which sets R9 for row AX.

#define ROWSEQ \
	MOVQ R12, R9; \
	ADDQ R8, R12

#define ROWIDX \
	MOVQ  (R10)(AX*8), R9; \
	SUBQ  R11, R9; \
	IMULQ R8, R9; \
	ADDQ  DX, R9

#define AXPYROWS(ROW) \
c32: \
	CMPQ CX, $32; \
	JLT  c16; \
	VMOVUPS (DI), Y0; \
	VMOVUPS 32(DI), Y1; \
	VMOVUPS 64(DI), Y2; \
	VMOVUPS 96(DI), Y3; \
	XORQ AX, AX; \
	MOVQ DX, R12; \
r32: \
	ROW; \
	VBROADCASTSS (SI)(AX*4), Y8; \
	VMULPS (R9), Y8, Y4; \
	VADDPS Y4, Y0, Y0; \
	VMULPS 32(R9), Y8, Y5; \
	VADDPS Y5, Y1, Y1; \
	VMULPS 64(R9), Y8, Y6; \
	VADDPS Y6, Y2, Y2; \
	VMULPS 96(R9), Y8, Y7; \
	VADDPS Y7, Y3, Y3; \
	INCQ AX; \
	CMPQ AX, BX; \
	JLT  r32; \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, 64(DI); \
	VMOVUPS Y3, 96(DI); \
	ADDQ $128, DI; \
	ADDQ $128, DX; \
	SUBQ $32, CX; \
	JMP  c32; \
c16: \
	CMPQ CX, $16; \
	JLT  c8; \
	VMOVUPS (DI), Y0; \
	VMOVUPS 32(DI), Y1; \
	XORQ AX, AX; \
	MOVQ DX, R12; \
r16: \
	ROW; \
	VBROADCASTSS (SI)(AX*4), Y8; \
	VMULPS (R9), Y8, Y4; \
	VADDPS Y4, Y0, Y0; \
	VMULPS 32(R9), Y8, Y5; \
	VADDPS Y5, Y1, Y1; \
	INCQ AX; \
	CMPQ AX, BX; \
	JLT  r16; \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	ADDQ $64, DI; \
	ADDQ $64, DX; \
	SUBQ $16, CX; \
c8: \
	CMPQ CX, $8; \
	JLT  done; \
	VMOVUPS (DI), Y0; \
	XORQ AX, AX; \
	MOVQ DX, R12; \
r8: \
	ROW; \
	VBROADCASTSS (SI)(AX*4), Y8; \
	VMULPS (R9), Y8, Y4; \
	VADDPS Y4, Y0, Y0; \
	INCQ AX; \
	CMPQ AX, BX; \
	JLT  r8; \
	VMOVUPS Y0, (DI); \
done: \
	VZEROUPPER; \
	RET

// func axpyRowsAVX2(out *float32, n int, w *float32, m int, rows *float32, stride int)
//
// Row i starts at rows[i·stride].
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ w+16(FP), SI
	MOVQ m+24(FP), BX
	MOVQ rows+32(FP), DX
	MOVQ stride+40(FP), R8
	SHLQ $2, R8
	AXPYROWS(ROWSEQ)

// func axpyRowsIdxAVX2(out *float32, n int, w *float32, idx *int, m, base int, rows *float32, stride int)
//
// Row i starts at rows[(idx[i]-base)·stride]. The caller has checked every
// index.
TEXT ·axpyRowsIdxAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ w+16(FP), SI
	MOVQ idx+24(FP), R10
	MOVQ m+32(FP), BX
	MOVQ base+40(FP), R11
	MOVQ rows+48(FP), DX
	MOVQ stride+56(FP), R8
	SHLQ $2, R8
	AXPYROWS(ROWIDX)

// func panelDotAVX2(dst, x, panels *float32, np, cols int)
//
// PackedMat GEMV over np whole panels: dst[4p+k] = <x, source row 4p+k>. A
// panel stores its four rows column-interleaved, which is the row-lane
// layout already: one XMM accumulator per panel adds x[j]·(column j of the
// four rows) in ascending j. Four panels run together to keep four
// independent chains in flight. cols > 0.
TEXT ·panelDotAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ panels+16(FP), DX
	MOVQ np+24(FP), BX
	MOVQ cols+32(FP), CX
	MOVQ CX, R8
	SHLQ $4, R8 // panel size in bytes
p4:
	CMPQ BX, $4
	JLT  p1
	LEAQ (DX)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	XORQ AX, AX
	XORQ R12, R12
col4:
	VBROADCASTSS (SI)(AX*4), X8
	VMULPS (DX)(R12*1), X8, X4
	VADDPS X4, X0, X0
	VMULPS (R9)(R12*1), X8, X5
	VADDPS X5, X1, X1
	VMULPS (R10)(R12*1), X8, X6
	VADDPS X6, X2, X2
	VMULPS (R11)(R12*1), X8, X7
	VADDPS X7, X3, X3
	ADDQ $16, R12
	INCQ AX
	CMPQ AX, CX
	JLT  col4
	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	VMOVUPS X2, 32(DI)
	VMOVUPS X3, 48(DI)
	ADDQ $64, DI
	LEAQ (R11)(R8*1), DX
	SUBQ $4, BX
	JMP  p4
p1:
	TESTQ BX, BX
	JLE   done
	VXORPS X0, X0, X0
	XORQ AX, AX
	XORQ R12, R12
col1:
	VBROADCASTSS (SI)(AX*4), X8
	VMULPS (DX)(R12*1), X8, X4
	VADDPS X4, X0, X0
	ADDQ $16, R12
	INCQ AX
	CMPQ AX, CX
	JLT  col1
	VMOVUPS X0, (DI)
	ADDQ $16, DI
	ADDQ R8, DX
	DECQ BX
	JMP  p1
done:
	VZEROUPPER
	RET

DATA absmask<>+0(SB)/4, $0x7fffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $4

// func maxAbsAVX2(x *float32, n int) (max float32, absBits uint32)
//
// max is the largest element of x[:n] and absBits the largest bit pattern of
// |x[i]| (≥ 0x7f800000 iff some element is NaN or ±Inf, in which case max
// is meaningless). n ≥ 8; the last block is read overlapping, so there is no
// tail.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS absmask<>(SB), Y3
	VMOVUPS -32(SI)(CX*4), Y0
	VANDPS  Y3, Y0, Y1
	SHRQ    $3, CX
block:
	VMOVUPS (SI), Y2
	VMAXPS  Y2, Y0, Y0
	VANDPS  Y3, Y2, Y2
	VPMAXSD Y2, Y1, Y1
	ADDQ    $32, SI
	DECQ    CX
	JGT     block
	VEXTRACTF128 $1, Y0, X2
	VMAXPS  X2, X0, X0
	VSHUFPS $0x4E, X0, X0, X2
	VMAXPS  X2, X0, X0
	VSHUFPS $0xB1, X0, X0, X2
	VMAXPS  X2, X0, X0
	VMOVSS  X0, max+16(FP)
	VEXTRACTI128 $1, Y1, X2
	VPMAXSD X2, X1, X1
	VPSHUFD $0x4E, X1, X2
	VPMAXSD X2, X1, X1
	VPSHUFD $0xB1, X1, X2
	VPMAXSD X2, X1, X1
	VMOVD   X1, AX
	MOVL    AX, absBits+20(FP)
	VZEROUPPER
	RET

// func scaleAVX2(x *float32, n int, a float32)
//
// x[i] *= a for i in [0, n); n%8 == 0, n > 0.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS a+16(FP), Y1
block:
	VMULPS  (SI), Y1, Y0
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	JGT     block
	VZEROUPPER
	RET

// Constants of math.archExp (src/math/exp_amd64.s), spelled identically so
// the assembler rounds them to the same float64 values.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

DATA expk<>+0(SB)/8, $LOG2E
DATA expk<>+8(SB)/8, $LN2U
DATA expk<>+16(SB)/8, $LN2L
DATA expk<>+24(SB)/8, $0.0625
DATA expk<>+32(SB)/8, $2.4801587301587301587e-5
DATA expk<>+40(SB)/8, $1.0
DATA expk<>+48(SB)/8, $2.0
DATA expk<>+56(SB)/8, $-104.0
DATA expk<>+64(SB)/8, $0x3ff
GLOBL expk<>(SB), RODATA|NOPTR, $72

// Horner coefficients used as 256-bit memory operands, four copies each.
#define D4(off, v) \
	DATA exph<>+(off+0)(SB)/8, v; \
	DATA exph<>+(off+8)(SB)/8, v; \
	DATA exph<>+(off+16)(SB)/8, v; \
	DATA exph<>+(off+24)(SB)/8, v

D4(0, $1.9841269841269841270e-4)
D4(32, $1.3888888888888888889e-3)
D4(64, $8.3333333333333333333e-3)
D4(96, $4.1666666666666666667e-2)
D4(128, $1.6666666666666666667e-1)
D4(160, $0.5)
GLOBL exph<>(SB), RODATA|NOPTR, $192

// func expSumAVX2(x *float32, n int, max, sum float32) float32
//
// For i ascending in [0, n): x[i] = float32(math.Exp(float64(x[i]-max))) and
// sum += x[i]; returns sum. n%4 == 0, n > 0, and every x[i]-max is ≤ 0 or
// -Inf. Four float64 lanes execute the instruction sequence of the FMA path
// of math.archExp step for step; lanes below -104 are forced to +0, which is
// what float32(math.Exp(x)) returns there (exp(-104) < 2^-150) and keeps the
// exponent k inside the normal range. The float32 sum is carried serially
// through the lanes, so it is the scalar loop's sum.
TEXT ·expSumAVX2(SB), NOSPLIT, $0-28
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS max+16(FP), X6
	VMOVSS sum+20(FP), X5
	VBROADCASTSD expk<>+0(SB), Y15
	VBROADCASTSD expk<>+8(SB), Y14
	VBROADCASTSD expk<>+16(SB), Y13
	VBROADCASTSD expk<>+24(SB), Y12
	VBROADCASTSD expk<>+32(SB), Y11
	VBROADCASTSD expk<>+40(SB), Y10
	VBROADCASTSD expk<>+48(SB), Y9
	VBROADCASTSD expk<>+56(SB), Y8
	VPBROADCASTQ expk<>+64(SB), Y7
block:
	VMOVUPS   (SI), X0
	VSUBPS    X6, X0, X0
	VCVTPS2PD X0, Y0
	VCMPPD    $0x11, Y8, Y0, Y3 // x < -104
	VMULPD    Y15, Y0, Y1
	VCVTPD2DQY Y1, X2 // k = round(x·log2e)
	VCVTDQ2PD X2, Y1
	VFNMADD231PD Y14, Y1, Y0 // x -= k·LN2U
	VFNMADD231PD Y13, Y1, Y0 // x -= k·LN2L
	VMULPD    Y12, Y0, Y0
	VMOVAPD   Y11, Y1
	VFMADD213PD exph<>+0(SB), Y0, Y1
	VFMADD213PD exph<>+32(SB), Y0, Y1
	VFMADD213PD exph<>+64(SB), Y0, Y1
	VFMADD213PD exph<>+96(SB), Y0, Y1
	VFMADD213PD exph<>+128(SB), Y0, Y1
	VFMADD213PD exph<>+160(SB), Y0, Y1
	VFMADD213PD Y10, Y0, Y1
	VMULPD    Y1, Y0, Y0
	VADDPD    Y9, Y0, Y1
	VMULPD    Y1, Y0, Y0
	VADDPD    Y9, Y0, Y1
	VMULPD    Y1, Y0, Y0
	VADDPD    Y9, Y0, Y1
	VMULPD    Y1, Y0, Y0
	VADDPD    Y9, Y0, Y1
	VFMADD213PD Y10, Y1, Y0
	VPMOVSXDQ X2, Y4
	VPADDQ    Y7, Y4, Y4
	VPSLLQ    $52, Y4, Y4 // 2^k
	VMULPD    Y4, Y0, Y0
	VANDNPD   Y0, Y3, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS   X0, (SI)
	VADDSS    X0, X5, X5
	VMOVSHDUP X0, X1
	VADDSS    X1, X5, X5
	VPSHUFD   $0xEE, X0, X1
	VADDSS    X1, X5, X5
	VPSHUFD   $0xFF, X0, X1
	VADDSS    X1, X5, X5
	ADDQ      $16, SI
	SUBQ      $4, CX
	JGT       block
	VMOVSS    X5, ret+24(FP)
	VZEROUPPER
	RET
