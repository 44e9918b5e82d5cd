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

// TRANS8CHUNK transposes one 4-channel chunk (byte offset AX) of the eight
// rows at R8..R15 into Y1..Y4, one channel each with the rows in the lanes:
// the chunk is loaded as (row k | row k+4) and transposed inside the 128-bit
// lanes (unpack gives a0 b0 a1 b1 / a2 b2 a3 b3, the shuffles one channel of
// rows 0-3 | 4-7 each). Clobbers Y5-Y8.
#define TRANS8CHUNK \
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
	VSHUFPS     $0xEE, Y8, Y6, Y4

// DOT8CHUNK adds one 4-channel chunk (byte offset AX) of the eight rows at
// R8..R15 into the eight dot products of Y0, x at SI. Lanes are rows, and the
// four channels are added in ascending order, so every lane runs its row's
// scalar loop. Clobbers Y1-Y9.
#define DOT8CHUNK \
	TRANS8CHUNK; \
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

// ROWS8 points R9..R15 at the seven rows after R8, CX bytes apart.
#define ROWS8 \
	LEAQ (R8)(CX*1), R9; \
	LEAQ (R9)(CX*1), R10; \
	LEAQ (R10)(CX*1), R11; \
	LEAQ (R11)(CX*1), R12; \
	LEAQ (R12)(CX*1), R13; \
	LEAQ (R13)(CX*1), R14; \
	LEAQ (R14)(CX*1), R15

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
	ROWS8
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

// func dotRowsPtrAVX2(dst, x *float32, rows **float32, m, d int, scale float32)
//
// dst[i] = scale·<x, the d values at rows[i]> for i in [0, m); m%8 == 0,
// m > 0. The caller has checked every row.
TEXT ·dotRowsPtrAVX2(SB), NOSPLIT, $0-44
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ m+24(FP), BX
	MOVQ d+32(FP), CX
	SHLQ $2, CX
	VBROADCASTSS scale+40(FP), Y10
group:
	MOVQ (DX), R8
	MOVQ 8(DX), R9
	MOVQ 16(DX), R10
	MOVQ 24(DX), R11
	MOVQ 32(DX), R12
	MOVQ 40(DX), R13
	MOVQ 48(DX), R14
	MOVQ 56(DX), R15
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

// TRANS8STORE transposes the eight rows at R8 (ROWS8 sets the rest) into the
// frame at BX, channel c at 64·c(BX); loop names the macro's label. Clobbers
// AX, BX, Y1-Y8.
#define TRANS8STORE(loop) \
	ROWS8; \
	XORQ AX, AX; \
loop: \
	TRANS8CHUNK; \
	VMOVUPS Y1, (BX); \
	VMOVUPS Y2, 64(BX); \
	VMOVUPS Y3, 128(BX); \
	VMOVUPS Y4, 192(BX); \
	ADDQ $256, BX; \
	ADDQ $16, AX; \
	CMPQ AX, CX; \
	JLT  loop

// SCORE1 adds channel AX + xoff of the four queries at R8..R11 times the
// transposed channel at BX + toff (rows 0-7 | 8-15) into Y8..Y11 | Y12..Y15.
#define SCORE1(xoff, toff) \
	VMOVUPS      (toff)(BX), Y0; \
	VMOVUPS      (toff+32)(BX), Y1; \
	VBROADCASTSS (xoff)(R8)(AX*1), Y2; \
	VMULPS       Y0, Y2, Y3; \
	VADDPS       Y3, Y8, Y8; \
	VMULPS       Y1, Y2, Y2; \
	VADDPS       Y2, Y12, Y12; \
	VBROADCASTSS (xoff)(R9)(AX*1), Y2; \
	VMULPS       Y0, Y2, Y3; \
	VADDPS       Y3, Y9, Y9; \
	VMULPS       Y1, Y2, Y2; \
	VADDPS       Y2, Y13, Y13; \
	VBROADCASTSS (xoff)(R10)(AX*1), Y2; \
	VMULPS       Y0, Y2, Y3; \
	VADDPS       Y3, Y10, Y10; \
	VMULPS       Y1, Y2, Y2; \
	VADDPS       Y2, Y14, Y14; \
	VBROADCASTSS (xoff)(R11)(AX*1), Y2; \
	VMULPS       Y0, Y2, Y3; \
	VADDPS       Y3, Y11, Y11; \
	VMULPS       Y1, Y2, Y2; \
	VADDPS       Y2, Y15, Y15

// STORE2 scales and stores query k's sixteen scores, Y(lo) | Y(hi), at byte
// offset DI of dsts[j+k]; SI is dsts, R12 is 8·j, Y0 the scale.
#define STORE2(k, lo, hi) \
	MOVQ    (k*8)(SI)(R12*1), R14; \
	VMULPS  Y0, lo, lo; \
	VMULPS  Y0, hi, hi; \
	VMOVUPS lo, (R14)(DI*1); \
	VMOVUPS hi, 32(R14)(DI*1)

// func dotRowsBlockAVX2(dsts, xs **float32, nq int, rows *float32, m, d int, scale float32)
//
// dsts[j][r] = scale·<xs[j], rows[r·d : (r+1)·d]> for j in [0, nq) and r in
// [0, m); nq%4 == 0, nq > 0, m%16 == 0, m > 0, d%4 == 0, 0 < d ≤ 64. Sixteen
// rows at a time are transposed once, into the frame (channel c of rows 0-7
// | 8-15 at 64·c | 64·c+32), and every query is then scored against them
// with broadcasts, VMULPS and VADDPS alone: four queries by two 8-row groups
// are eight independent chains, each adding its channels in ascending order
// as dotRowsAVX2's lanes do.
TEXT ·dotRowsBlockAVX2(SB), $4096-52
	MOVQ rows+24(FP), R8
	MOVQ d+40(FP), CX
	SHLQ $2, CX
	XORQ DI, DI // byte offset of the sixteen rows in every dst
rows16:
	LEAQ (SP), BX
	TRANS8STORE(trans0)
	LEAQ (R15)(CX*1), R8
	LEAQ 32(SP), BX
	TRANS8STORE(trans1)
	LEAQ (R15)(CX*1), R13 // the next sixteen rows
	XORQ R12, R12
batch:
	MOVQ xs+8(FP), SI
	MOVQ (SI)(R12*1), R8
	MOVQ 8(SI)(R12*1), R9
	MOVQ 16(SI)(R12*1), R10
	MOVQ 24(SI)(R12*1), R11
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	LEAQ (SP), BX
	XORQ AX, AX
chan:
	SCORE1(0, 0)
	SCORE1(4, 64)
	SCORE1(8, 128)
	SCORE1(12, 192)
	ADDQ $256, BX
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  chan
	VBROADCASTSS scale+48(FP), Y0
	MOVQ dsts+0(FP), SI
	STORE2(0, Y8, Y12)
	STORE2(1, Y9, Y13)
	STORE2(2, Y10, Y14)
	STORE2(3, Y11, Y15)
	ADDQ $32, R12
	MOVQ nq+16(FP), R14
	SHLQ $3, R14
	CMPQ R12, R14
	JLT  batch
	MOVQ R13, R8
	ADDQ $64, DI
	MOVQ m+32(FP), R14
	SHLQ $2, R14
	CMPQ DI, R14
	JLT  rows16
	VZEROUPPER
	RET

// The axpy-rows kernels compute out[j] += w[i]·row_i[j] for rows i ascending.
// Lanes are output channels: 32, 16 or 8 of them are held in registers while
// every row streams past, so each out[j] adds its products in row order.
// Register use: DI out, CX channels left (n%8 == 0), SI w, BX m (> 0),
// DX rows (advanced with DI), R8 row stride in bytes, R9 current row,
// AX row counter, R12 the next row of a sequential walk; the pointer-list
// variant loads row AX's address from R10[AX], DX being the channel offset
// of the block. AXPYROWS is the whole loop nest, the two kernels differing
// only in ROW, which sets R9 for row AX.

#define ROWSEQ \
	MOVQ R12, R9; \
	ADDQ R8, R12

#define ROWPTR \
	MOVQ (R10)(AX*8), R9; \
	ADDQ DX, R9

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

// func axpyRowsPtrAVX2(out *float32, n int, w *float32, rows **float32, m int)
//
// Row i starts at rows[i]. The caller has checked every row.
TEXT ·axpyRowsPtrAVX2(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ w+16(FP), SI
	MOVQ rows+24(FP), R10
	MOVQ m+32(FP), BX
	XORQ DX, DX
	AXPYROWS(ROWPTR)

// AXPYQ adds w[i]·(Y0 | Y1), w at wreg and i in AX, into one query's
// accumulators lo | hi; AXPYQ1 is its 8-channel half.
#define AXPYQ(wreg, lo, hi) \
	VBROADCASTSS (wreg)(AX*4), Y2; \
	VMULPS       Y0, Y2, Y3; \
	VADDPS       Y3, lo, lo; \
	VMULPS       Y1, Y2, Y2; \
	VADDPS       Y2, hi, hi

#define AXPYQ1(wreg, acc) \
	VBROADCASTSS (wreg)(AX*4), Y2; \
	VMULPS       Y0, Y2, Y2; \
	VADDPS       Y2, acc, acc

// LOADQ and STOREQ move query k's 8-channel accumulator (LOADQ2 and STOREQ2
// its 16-channel pair) from and to channel byte offset CX of outs[j+k]; SI is
// outs, DI is 8·j.
#define LOADQ(k, reg) \
	MOVQ    (k*8)(SI)(DI*1), R12; \
	VMOVUPS (R12)(CX*1), reg

#define LOADQ2(k, lo, hi) \
	MOVQ    (k*8)(SI)(DI*1), R12; \
	VMOVUPS (R12)(CX*1), lo; \
	VMOVUPS 32(R12)(CX*1), hi

#define STOREQ(k, reg) \
	MOVQ    (k*8)(SI)(DI*1), R12; \
	VMOVUPS reg, (R12)(CX*1)

#define STOREQ2(k, lo, hi) \
	MOVQ    (k*8)(SI)(DI*1), R12; \
	VMOVUPS lo, (R12)(CX*1); \
	VMOVUPS hi, 32(R12)(CX*1)

// func axpyRowsBlockAVX2(outs, ws **float32, nq int, rows *float32, m, n, stride int)
//
// outs[j][c] += Σ_i ws[j][i]·rows[i·stride + c] for j in [0, nq) and c in
// [0, n), rows i ascending; nq%4 == 0, nq > 0, n%8 == 0, n > 0, m > 0. Four
// queries at a time hold a 16-channel block each (an 8-channel one for the
// last block of an odd n/8) in registers while the rows stream past, so a row
// is loaded once for four outputs and every out[c] adds its products in row
// order, as axpyRowsAVX2's lanes do.
TEXT ·axpyRowsBlockAVX2(SB), NOSPLIT, $0-56
	// WPTRS points R8..R11 at ws[j..j+3], DI being 8·j.
#define WPTRS \
	MOVQ ws+8(FP), SI; \
	MOVQ (SI)(DI*1), R8; \
	MOVQ 8(SI)(DI*1), R9; \
	MOVQ 16(SI)(DI*1), R10; \
	MOVQ 24(SI)(DI*1), R11

	MOVQ m+32(FP), R14
	MOVQ n+40(FP), R15
	SHLQ $2, R15
	MOVQ stride+48(FP), DX
	SHLQ $2, DX
	MOVQ nq+16(FP), R13
	SHLQ $3, R13
	XORQ CX, CX // channel byte offset of the block
c16:
	MOVQ R15, BX
	SUBQ CX, BX
	CMPQ BX, $64
	JLT  c8
	XORQ DI, DI
b16:
	WPTRS
	MOVQ outs+0(FP), SI
	LOADQ2(0, Y8, Y9)
	LOADQ2(1, Y10, Y11)
	LOADQ2(2, Y12, Y13)
	LOADQ2(3, Y14, Y15)
	MOVQ rows+24(FP), BX
	ADDQ CX, BX
	XORQ AX, AX
r16:
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	AXPYQ(R8, Y8, Y9)
	AXPYQ(R9, Y10, Y11)
	AXPYQ(R10, Y12, Y13)
	AXPYQ(R11, Y14, Y15)
	ADDQ DX, BX
	INCQ AX
	CMPQ AX, R14
	JLT  r16
	STOREQ2(0, Y8, Y9)
	STOREQ2(1, Y10, Y11)
	STOREQ2(2, Y12, Y13)
	STOREQ2(3, Y14, Y15)
	ADDQ $32, DI
	CMPQ DI, R13
	JLT  b16
	ADDQ $64, CX
	JMP  c16
c8:
	CMPQ BX, $32
	JLT  done
	XORQ DI, DI
b8:
	WPTRS
	MOVQ outs+0(FP), SI
	LOADQ(0, Y8)
	LOADQ(1, Y9)
	LOADQ(2, Y10)
	LOADQ(3, Y11)
	MOVQ rows+24(FP), BX
	ADDQ CX, BX
	XORQ AX, AX
r8:
	VMOVUPS (BX), Y0
	AXPYQ1(R8, Y8)
	AXPYQ1(R9, Y9)
	AXPYQ1(R10, Y10)
	AXPYQ1(R11, Y11)
	ADDQ DX, BX
	INCQ AX
	CMPQ AX, R14
	JLT  r8
	STOREQ(0, Y8)
	STOREQ(1, Y9)
	STOREQ(2, Y10)
	STOREQ(3, Y11)
	ADDQ $32, DI
	CMPQ DI, R13
	JLT  b8
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

// EXPPD4 replaces the four float64 lanes of Y0 by math.Exp of them, running
// the instruction sequence of the FMA path of math.archExp step for step:
// k = round(x·log2e) in X2, x -= k·LN2U and k·LN2L, the Horner polynomial on
// x/16, four squarings, and the product with 2^k. It holds for arguments
// whose 2^k is a normal float64 (|x| < 708). EXPK4 loads its constants into
// Y7 and Y9-Y15; it clobbers Y1, Y2 and Y4.
#define EXPK4 \
	VBROADCASTSD expk<>+0(SB), Y15; \
	VBROADCASTSD expk<>+8(SB), Y14; \
	VBROADCASTSD expk<>+16(SB), Y13; \
	VBROADCASTSD expk<>+24(SB), Y12; \
	VBROADCASTSD expk<>+32(SB), Y11; \
	VBROADCASTSD expk<>+40(SB), Y10; \
	VBROADCASTSD expk<>+48(SB), Y9; \
	VPBROADCASTQ expk<>+64(SB), Y7

#define EXPPD4 \
	VMULPD    Y15, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1; \
	VFNMADD231PD Y14, Y1, Y0; \
	VFNMADD231PD Y13, Y1, Y0; \
	VMULPD    Y12, Y0, Y0; \
	VMOVAPD   Y11, Y1; \
	VFMADD213PD exph<>+0(SB), Y0, Y1; \
	VFMADD213PD exph<>+32(SB), Y0, Y1; \
	VFMADD213PD exph<>+64(SB), Y0, Y1; \
	VFMADD213PD exph<>+96(SB), Y0, Y1; \
	VFMADD213PD exph<>+128(SB), Y0, Y1; \
	VFMADD213PD exph<>+160(SB), Y0, Y1; \
	VFMADD213PD Y10, Y0, Y1; \
	VMULPD    Y1, Y0, Y0; \
	VADDPD    Y9, Y0, Y1; \
	VMULPD    Y1, Y0, Y0; \
	VADDPD    Y9, Y0, Y1; \
	VMULPD    Y1, Y0, Y0; \
	VADDPD    Y9, Y0, Y1; \
	VMULPD    Y1, Y0, Y0; \
	VADDPD    Y9, Y0, Y1; \
	VFMADD213PD Y10, Y1, Y0; \
	VPMOVSXDQ X2, Y4; \
	VPADDQ    Y7, Y4, Y4; \
	VPSLLQ    $52, Y4, Y4; \
	VMULPD    Y4, Y0, Y0

// EXPPD8 is EXPPD4 on the eight float64 lanes of Z0, with k in Y2 and the
// Horner coefficients in Z16-Z21; EXPK8 loads its constants into Z7 and
// Z9-Z21.
#define EXPK8 \
	VBROADCASTSD expk<>+0(SB), Z15; \
	VBROADCASTSD expk<>+8(SB), Z14; \
	VBROADCASTSD expk<>+16(SB), Z13; \
	VBROADCASTSD expk<>+24(SB), Z12; \
	VBROADCASTSD expk<>+32(SB), Z11; \
	VBROADCASTSD expk<>+40(SB), Z10; \
	VBROADCASTSD expk<>+48(SB), Z9; \
	VPBROADCASTQ expk<>+64(SB), Z7; \
	VBROADCASTSD exph<>+0(SB), Z16; \
	VBROADCASTSD exph<>+32(SB), Z17; \
	VBROADCASTSD exph<>+64(SB), Z18; \
	VBROADCASTSD exph<>+96(SB), Z19; \
	VBROADCASTSD exph<>+128(SB), Z20; \
	VBROADCASTSD exph<>+160(SB), Z21

#define EXPPD8 \
	VMULPD    Z15, Z0, Z1; \
	VCVTPD2DQ Z1, Y2; \
	VCVTDQ2PD Y2, Z1; \
	VFNMADD231PD Z14, Z1, Z0; \
	VFNMADD231PD Z13, Z1, Z0; \
	VMULPD    Z12, Z0, Z0; \
	VMOVAPD   Z11, Z1; \
	VFMADD213PD Z16, Z0, Z1; \
	VFMADD213PD Z17, Z0, Z1; \
	VFMADD213PD Z18, Z0, Z1; \
	VFMADD213PD Z19, Z0, Z1; \
	VFMADD213PD Z20, Z0, Z1; \
	VFMADD213PD Z21, Z0, Z1; \
	VFMADD213PD Z10, Z0, Z1; \
	VMULPD    Z1, Z0, Z0; \
	VADDPD    Z9, Z0, Z1; \
	VMULPD    Z1, Z0, Z0; \
	VADDPD    Z9, Z0, Z1; \
	VMULPD    Z1, Z0, Z0; \
	VADDPD    Z9, Z0, Z1; \
	VMULPD    Z1, Z0, Z0; \
	VADDPD    Z9, Z0, Z1; \
	VFMADD213PD Z10, Z1, Z0; \
	VPMOVSXDQ Y2, Z4; \
	VPADDQ    Z7, Z4, Z4; \
	VPSLLQ    $52, Z4, Z4; \
	VMULPD    Z4, Z0, Z0

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
	EXPK4
	VBROADCASTSD expk<>+56(SB), Y8
block:
	VMOVUPS   (SI), X0
	VSUBPS    X6, X0, X0
	VCVTPS2PD X0, Y0
	VCMPPD    $0x11, Y8, Y0, Y3 // x < -104
	EXPPD4
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

// func cpuHasAVX512() bool
//
// AVX-512F ∧ OS-saved opmask and ZMM state. Called only where cpuHasAVX2FMA
// holds, which has checked for CPUID leaf 7 and OSXSAVE.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $16, BX // AVX512F
	JCC  no
	MOVL $0, CX
	XGETBV
	ANDL $0xe6, AX // XMM, YMM, opmask, upper ZMM0-15, ZMM16-31
	CMPL AX, $0xe6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func expSumAVX512(x *float32, n int, max, sum float32) float32
//
// expSumAVX2 on eight float64 lanes: the same instruction sequence per lane,
// with the constants and Horner coefficients in Z7-Z21. n%8 == 0, n > 0. The
// -104 clamp is the zeroing mask K1 of the final conversion. The float32 sum
// is still carried serially, in lane order, by scalar adds that read the
// stored block back: the serial chain is this kernel's floor, and lane
// shuffles feeding it would compete with the 512-bit arithmetic for a port.
TEXT ·expSumAVX512(SB), NOSPLIT, $0-28
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS max+16(FP), Y6
	VMOVSS sum+20(FP), X5
	EXPK8
	VBROADCASTSD expk<>+56(SB), Z8
block:
	VMOVUPS   (SI), Y0
	VSUBPS    Y6, Y0, Y0
	VCVTPS2PD Y0, Z0
	VCMPPD    $0x15, Z8, Z0, K1 // not x < -104
	EXPPD8
	VCVTPD2PS.Z Z0, K1, Y0
	VMOVUPS   Y0, (SI)
	VADDSS    (SI), X5, X5
	VADDSS    4(SI), X5, X5
	VADDSS    8(SI), X5, X5
	VADDSS    12(SI), X5, X5
	VADDSS    16(SI), X5, X5
	VADDSS    20(SI), X5, X5
	VADDSS    24(SI), X5, X5
	VADDSS    28(SI), X5, X5
	ADDQ      $32, SI
	SUBQ      $8, CX
	JGT       block
	VMOVSS    X5, ret+24(FP)
	VZEROUPPER
	RET

DATA siluk<>+0(SB)/4, $0x80000000
DATA siluk<>+4(SB)/4, $1.0
GLOBL siluk<>(SB), RODATA|NOPTR, $8

// func siluMulAVX2(x, u *float32, n int)
//
// For i in [0, n): x[i] = x[i] / (1 + float32(math.Exp(float64(-x[i])))) *
// u[i]; n%4 == 0, n > 0, and every |x[i]| < 80. The exp runs on EXPPD4, so
// it is math.Exp's float64 to the bit and needs no clamp in that range; the
// float32 add, divide and multiply follow in the scalar loop's order.
TEXT ·siluMulAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ u+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSS siluk<>+0(SB), X5
	VBROADCASTSS siluk<>+4(SB), X6
	EXPK4
block:
	VMOVUPS   (SI), X3
	VXORPS    X5, X3, X0 // -x
	VCVTPS2PD X0, Y0
	EXPPD4
	VCVTPD2PSY Y0, X0
	VADDPS    X6, X0, X0
	VDIVPS    X0, X3, X3
	VMULPS    (DI), X3, X3
	VMOVUPS   X3, (SI)
	ADDQ      $16, SI
	ADDQ      $16, DI
	SUBQ      $4, CX
	JGT       block
	VZEROUPPER
	RET

// func siluMulAVX512(x, u *float32, n int)
//
// siluMulAVX2 on eight lanes, the exp on EXPPD8; n%8 == 0, n > 0.
TEXT ·siluMulAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ u+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSS siluk<>+0(SB), Y5
	VBROADCASTSS siluk<>+4(SB), Y6
	EXPK8
block:
	VMOVUPS   (SI), Y3
	VXORPS    Y5, Y3, Y0 // -x
	VCVTPS2PD Y0, Z0
	EXPPD8
	VCVTPD2PS Z0, Y0
	VADDPS    Y6, Y0, Y0
	VDIVPS    Y0, Y3, Y3
	VMULPS    (DI), Y3, Y3
	VMOVUPS   Y3, (SI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JGT       block
	VZEROUPPER
	RET

DATA neginf<>+0(SB)/4, $0xff800000
GLOBL neginf<>(SB), RODATA|NOPTR, $4

// func argBestCosAVX2(best *int, dots *float32, stride int, kn, cn *float32, n, c int)
//
// ArgBestCos over keys [0, n), eight per lane group; n%8 == 0, n > 0, c > 0.
// Each lane runs the scalar loop of its key: den = kn·cn[j], s = dot/den
// masked to +0 where den > 0 fails (GT_OQ: false on NaN, as Go's >), then
// best takes j where s > the best score so far (GT_OQ again, so the first
// maximal j stays and a NaN score never wins). The lanes' int32 indices are
// widened to int on the store.
TEXT ·argBestCosAVX2(SB), NOSPLIT, $0-56
	MOVQ best+0(FP), DI
	MOVQ dots+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $2, DX
	MOVQ kn+24(FP), R8
	MOVQ cn+32(FP), R9
	MOVQ n+40(FP), BX
	MOVQ c+48(FP), CX
	VBROADCASTSS neginf<>(SB), Y14
	VXORPS   Y15, Y15, Y15
	VPCMPEQD Y13, Y13, Y13 // int32 -1: j - (-1) steps the index
group:
	VMOVUPS (R8), Y0
	VMOVAPS Y14, Y1 // best score
	VPXOR   Y2, Y2, Y2 // best j
	VPXOR   Y3, Y3, Y3 // j
	MOVQ    SI, R10
	XORQ    AX, AX
cent:
	VBROADCASTSS (R9)(AX*4), Y4
	VMULPS    Y4, Y0, Y4
	VMOVUPS   (R10), Y5
	VDIVPS    Y4, Y5, Y5
	VCMPPS    $0x1e, Y15, Y4, Y6 // den > 0
	VANDPS    Y6, Y5, Y5
	VCMPPS    $0x1e, Y1, Y5, Y7 // s > best
	VBLENDVPS Y7, Y5, Y1, Y1
	VBLENDVPS Y7, Y3, Y2, Y2
	VPSUBD    Y13, Y3, Y3
	ADDQ      DX, R10
	INCQ      AX
	CMPQ      AX, CX
	JLT       cent
	VPMOVSXDQ X2, Y8
	VEXTRACTI128 $1, Y2, X9
	VPMOVSXDQ X9, Y9
	VMOVDQU   Y8, (DI)
	VMOVDQU   Y9, 32(DI)
	ADDQ      $64, DI
	ADDQ      $32, SI
	ADDQ      $32, R8
	SUBQ      $8, BX
	JGT       group
	VZEROUPPER
	RET
