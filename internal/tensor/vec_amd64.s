//go:build amd64 && !amd64.v3 && !purego

#include "textflag.h"

// AVX2 + FMA kernels behind vec_amd64.go (DESIGN.md §12), the score tile of
// prefill attention and K-means, the group kernels of decode attention over
// shared pages and the pair kernels of every other decode pick among them;
// AVX-512F twins of the exp, the SiLU gate, the score tile, the group
// kernels and the pair weighted sum; the AVX-512F two-row exp of
// SoftmaxRows; and the AVX-512F register tile of MatTMat with its 16-column
// tail. Every kernel puts *independent* reduction chains in the vector lanes
// and never splits one chain across lanes, and float32 arithmetic is a
// separate VMULPS and VADDPS (no fused multiply-add), so each lane performs
// exactly the operations of the scalar Go loop in the same order: results
// are bit-identical for finite inputs. The one exception is how
// expSumAVX512, tileExpSumAVX512 and pairExpSumAVX512 reach their exps,
// through a table instead of math.Exp's sequence; each exp is still
// math.Exp's float32 (see expSumAVX512). Row and column tails stay in Go; no
// kernel reads past its slice. Every routine ends in VZEROUPPER.

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
// order, as axpyRowsAVX2's lanes do. MatTMat's 8-column tail calls it with a
// register tile's activation rows as the queries.
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

// ZAXPY adds w[i]·(the row's sixteen channels in Z0), w at wreg and i in AX,
// into one query's accumulator acc.
#define ZAXPY(wreg, acc) \
	VBROADCASTSS (wreg)(AX*4), Z1; \
	VMULPS       Z0, Z1, Z1; \
	VADDPS       Z1, acc, acc

// ZLOADQ and ZSTOREQ move query t's sixteen-channel accumulator from and to
// channel byte offset CX of outs[j+t]; SI is outs, DI is 8·j.
#define ZLOADQ(t, acc) \
	MOVQ    (t*8)(SI)(DI*1), BX; \
	VMOVUPS (BX)(CX*1), acc

#define ZSTOREQ(t, acc) \
	MOVQ    (t*8)(SI)(DI*1), BX; \
	VMOVUPS acc, (BX)(CX*1)

// func axpyRowsBlockAVX512(outs, ws **float32, nq int, rows *float32, m, n, stride int)
//
// axpyRowsBlockAVX2's contract on sixteen lanes: nq%8 == 0, nq > 0, n%16 ==
// 0, n > 0, m > 0. Eight queries at a time hold a sixteen-channel block each
// in Z16-Z23 while the rows stream past, so a row is loaded once for eight
// outputs and every out[c] adds its products in row order, as
// axpyRowsAVX2's lanes do: MatTMat's 16-column tail.
TEXT ·axpyRowsBlockAVX512(SB), NOSPLIT, $0-56
	MOVQ stride+48(FP), DX
	SHLQ $2, DX
	XORQ CX, CX // channel byte offset of the block
zc16:
	XORQ DI, DI
zb8:
	MOVQ ws+8(FP), SI
	MOVQ (SI)(DI*1), R8
	MOVQ 8(SI)(DI*1), R9
	MOVQ 16(SI)(DI*1), R10
	MOVQ 24(SI)(DI*1), R11
	MOVQ 32(SI)(DI*1), R12
	MOVQ 40(SI)(DI*1), R13
	MOVQ 48(SI)(DI*1), R14
	MOVQ 56(SI)(DI*1), R15
	MOVQ outs+0(FP), SI
	ZLOADQ(0, Z16)
	ZLOADQ(1, Z17)
	ZLOADQ(2, Z18)
	ZLOADQ(3, Z19)
	ZLOADQ(4, Z20)
	ZLOADQ(5, Z21)
	ZLOADQ(6, Z22)
	ZLOADQ(7, Z23)
	MOVQ rows+24(FP), BX
	ADDQ CX, BX
	XORQ AX, AX
zr16:
	VMOVUPS (BX), Z0
	ZAXPY(R8, Z16)
	ZAXPY(R9, Z17)
	ZAXPY(R10, Z18)
	ZAXPY(R11, Z19)
	ZAXPY(R12, Z20)
	ZAXPY(R13, Z21)
	ZAXPY(R14, Z22)
	ZAXPY(R15, Z23)
	ADDQ DX, BX
	INCQ AX
	CMPQ AX, m+32(FP)
	JLT  zr16
	ZSTOREQ(0, Z16)
	ZSTOREQ(1, Z17)
	ZSTOREQ(2, Z18)
	ZSTOREQ(3, Z19)
	ZSTOREQ(4, Z20)
	ZSTOREQ(5, Z21)
	ZSTOREQ(6, Z22)
	ZSTOREQ(7, Z23)
	ADDQ $64, DI
	MOVQ nq+16(FP), BX
	SHLQ $3, BX
	CMPQ DI, BX
	JLT  zb8
	ADDQ $64, CX
	MOVQ n+40(FP), BX
	SHLQ $2, BX
	CMPQ CX, BX
	JLT  zc16
	VZEROUPPER
	RET

// MACC adds the broadcast activation of the row at xreg, weight row AX,
// times the weight row's 32 columns in Z0 | Z1 into that row's accumulators
// lo | hi.
#define MACC(xreg, lo, hi) \
	VBROADCASTSS (xreg)(AX*4), Z2; \
	VMULPS       Z0, Z2, Z3; \
	VADDPS       Z3, lo, lo; \
	VMULPS       Z1, Z2, Z4; \
	VADDPS       Z4, hi, hi

// MLOAD and MSTORE move activation row t's 32-column accumulators from and
// to column byte offset CX of dsts[t]; SI is dsts.
#define MLOAD(t, lo, hi) \
	MOVQ    (t*8)(SI), BX; \
	VMOVUPS (BX)(CX*1), lo; \
	VMOVUPS 64(BX)(CX*1), hi

#define MSTORE(t, lo, hi) \
	MOVQ    (t*8)(SI), BX; \
	VMOVUPS lo, (BX)(CX*1); \
	VMOVUPS hi, 64(BX)(CX*1)

// func matTMatTileAVX512(dsts, xs **float32, w *float32, k, n, stride int, zero bool)
//
// The register tile of MatTMat: dsts[t][c] += Σ_i xs[t][i]·w[i·stride + c]
// for the eight activation rows t, c in [0, n) and weight rows i ascending
// in [0, k); n%32 == 0, n > 0, k > 0. With zero the sums start from +0
// instead of dsts' values. Each 32-column block keeps the eight rows' sums
// in Z16-Z31 across the whole reduction, so a weight row is loaded once for
// eight outputs and a destination once per block, and every output adds its
// products in weight-row order, as axpyRowsAVX2's lanes do.
TEXT ·matTMatTileAVX512(SB), NOSPLIT, $0-49
	MOVQ xs+8(FP), SI
	MOVQ (SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11
	MOVQ 32(SI), R12
	MOVQ 40(SI), R13
	MOVQ 48(SI), R14
	MOVQ 56(SI), R15
	MOVQ stride+40(FP), DX
	SHLQ $2, DX
	MOVQ k+24(FP), DI
	XORQ CX, CX // column byte offset of the block
mcol:
	CMPB zero+48(FP), $0
	JEQ  mload
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VPXORD Z30, Z30, Z30
	VPXORD Z31, Z31, Z31
	JMP  mrows
mload:
	MOVQ dsts+0(FP), SI
	MLOAD(0, Z16, Z17)
	MLOAD(1, Z18, Z19)
	MLOAD(2, Z20, Z21)
	MLOAD(3, Z22, Z23)
	MLOAD(4, Z24, Z25)
	MLOAD(5, Z26, Z27)
	MLOAD(6, Z28, Z29)
	MLOAD(7, Z30, Z31)
mrows:
	MOVQ w+16(FP), SI
	ADDQ CX, SI
	XORQ AX, AX
mrow:
	VMOVUPS (SI), Z0
	VMOVUPS 64(SI), Z1
	MACC(R8, Z16, Z17)
	MACC(R9, Z18, Z19)
	MACC(R10, Z20, Z21)
	MACC(R11, Z22, Z23)
	MACC(R12, Z24, Z25)
	MACC(R13, Z26, Z27)
	MACC(R14, Z28, Z29)
	MACC(R15, Z30, Z31)
	ADDQ DX, SI
	INCQ AX
	CMPQ AX, DI
	JLT  mrow
	MOVQ dsts+0(FP), SI
	MSTORE(0, Z16, Z17)
	MSTORE(1, Z18, Z19)
	MSTORE(2, Z20, Z21)
	MSTORE(3, Z22, Z23)
	MSTORE(4, Z24, Z25)
	MSTORE(5, Z26, Z27)
	MSTORE(6, Z28, Z29)
	MSTORE(7, Z30, Z31)
	ADDQ $128, CX
	MOVQ n+32(FP), BX
	SHLQ $2, BX
	CMPQ CX, BX
	JLT  mcol
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

// Table constants of expSumAVX512's fast path (bit patterns, so every value
// is exactly the float64 intended): 16/ln2, ln2/16, the shifter 1.5·2^52
// whose low mantissa bits take the integer k when added, 2^(j/16) correctly
// rounded for j in [0, 16), the coefficients c4..c1 of the degree-4
// polynomial near-minimax for e^r on |r| ≤ 0.021665 (c0 = 1; mpmath
// chebyfit, error 2^-38.5 relative), and the three tests of the fallback:
// the midpoint offset 2^28 + 2^16 and mask 2^29 − 2^17 (see the kernel) and
// -87, below which e^z leaves the float32 normal range.
DATA expt<>+0(SB)/8, $0x40371547652b82fe
DATA expt<>+8(SB)/8, $0x3fa62e42fefa39ef
DATA expt<>+16(SB)/8, $0x4338000000000000
DATA expt<>+24(SB)/8, $0x3ff0000000000000
DATA expt<>+32(SB)/8, $0x3ff0b5586cf9890f
DATA expt<>+40(SB)/8, $0x3ff172b83c7d517b
DATA expt<>+48(SB)/8, $0x3ff2387a6e756238
DATA expt<>+56(SB)/8, $0x3ff306fe0a31b715
DATA expt<>+64(SB)/8, $0x3ff3dea64c123422
DATA expt<>+72(SB)/8, $0x3ff4bfdad5362a27
DATA expt<>+80(SB)/8, $0x3ff5ab07dd485429
DATA expt<>+88(SB)/8, $0x3ff6a09e667f3bcd
DATA expt<>+96(SB)/8, $0x3ff7a11473eb0187
DATA expt<>+104(SB)/8, $0x3ff8ace5422aa0db
DATA expt<>+112(SB)/8, $0x3ff9c49182a3f090
DATA expt<>+120(SB)/8, $0x3ffae89f995ad3ad
DATA expt<>+128(SB)/8, $0x3ffc199bdd85529c
DATA expt<>+136(SB)/8, $0x3ffd5818dcfba487
DATA expt<>+144(SB)/8, $0x3ffea4afa2a490da
DATA expt<>+152(SB)/8, $0x3fa55570ad2d8ee7
DATA expt<>+160(SB)/8, $0x3fc5557e59212e32
DATA expt<>+168(SB)/8, $0x3fdfffffffe5b737
DATA expt<>+176(SB)/8, $0x3fefffffffb12593
DATA expt<>+184(SB)/8, $0x0000000010010000
DATA expt<>+192(SB)/8, $0x000000001ffe0000
DATA expt<>+200(SB)/8, $0xc055c00000000000
GLOBL expt<>(SB), RODATA|NOPTR, $208

// EXPPD8M is EXPPD8 with its constants read from memory (broadcast operands)
// instead of EXPK8's registers, and the same instructions otherwise: the
// fallback of the table kernels, which keep their own constants in Z8, Z10,
// Z12 and Z22-Z30. Clobbers Z1, Y2 and Z4.
#define EXPPD8M \
	VMULPD.BCST expk<>+0(SB), Z0, Z1; \
	VCVTPD2DQ Z1, Y2; \
	VCVTDQ2PD Y2, Z1; \
	VFNMADD231PD.BCST expk<>+8(SB), Z1, Z0; \
	VFNMADD231PD.BCST expk<>+16(SB), Z1, Z0; \
	VMULPD.BCST expk<>+24(SB), Z0, Z0; \
	VBROADCASTSD expk<>+32(SB), Z1; \
	VFMADD213PD.BCST exph<>+0(SB), Z0, Z1; \
	VFMADD213PD.BCST exph<>+32(SB), Z0, Z1; \
	VFMADD213PD.BCST exph<>+64(SB), Z0, Z1; \
	VFMADD213PD.BCST exph<>+96(SB), Z0, Z1; \
	VFMADD213PD.BCST exph<>+128(SB), Z0, Z1; \
	VFMADD213PD.BCST exph<>+160(SB), Z0, Z1; \
	VFMADD213PD.BCST expk<>+40(SB), Z0, Z1; \
	VMULPD    Z1, Z0, Z0; \
	VADDPD.BCST expk<>+48(SB), Z0, Z1; \
	VMULPD    Z1, Z0, Z0; \
	VADDPD.BCST expk<>+48(SB), Z0, Z1; \
	VMULPD    Z1, Z0, Z0; \
	VADDPD.BCST expk<>+48(SB), Z0, Z1; \
	VMULPD    Z1, Z0, Z0; \
	VADDPD.BCST expk<>+48(SB), Z0, Z1; \
	VFMADD213PD.BCST expk<>+40(SB), Z1, Z0; \
	VPMOVSXDQ Y2, Z4; \
	VPADDQ.BCST expk<>+64(SB), Z4, Z4; \
	VPSLLQ    $52, Z4, Z4; \
	VMULPD    Z4, Z0, Z0

// EXPTK loads the table kernels' constants: the -104 clamp in Z8, 1.0 in
// Z10, 0.0625 in Z12 and the fast path's in Z22-Z30.
#define EXPTK \
	VBROADCASTSD expk<>+56(SB), Z8; \
	VBROADCASTSD expk<>+40(SB), Z10; \
	VBROADCASTSD expk<>+24(SB), Z12; \
	VBROADCASTSD expt<>+0(SB), Z22; \
	VBROADCASTSD expt<>+8(SB), Z23; \
	VBROADCASTSD expt<>+16(SB), Z24; \
	VMOVUPD      expt<>+24(SB), Z25; \
	VMOVUPD      expt<>+88(SB), Z26; \
	VBROADCASTSD expt<>+152(SB), Z27; \
	VBROADCASTSD expt<>+160(SB), Z28; \
	VBROADCASTSD expt<>+168(SB), Z29; \
	VBROADCASTSD expt<>+176(SB), Z30

// EXPT8 computes the eight exps of the block at ptr less the max in maxY:
// the fast path's float64 values in Z3, z in Z0, the live lanes (z ≥ -104)
// in K1, and a nonzero K2 when the block must take EXPPD8M instead.
#define EXPT8(ptr, maxY) \
	VMOVUPS   (ptr), Y0; \
	VSUBPS    maxY, Y0, Y0; \
	VCVTPS2PD Y0, Z0; \
	VCMPPD    $0x15, Z8, Z0, K1; \
	VMOVAPD   Z24, Z1; \
	VFMADD231PD Z22, Z0, Z1; \
	VSUBPD    Z24, Z1, Z2; \
	VMOVAPD   Z0, Z4; \
	VFNMADD231PD Z23, Z2, Z4; \
	VMULPD    Z12, Z2, Z2; \
	VPERMI2PD Z26, Z25, Z1; \
	VMOVAPD   Z27, Z3; \
	VFMADD213PD Z28, Z4, Z3; \
	VFMADD213PD Z29, Z4, Z3; \
	VFMADD213PD Z30, Z4, Z3; \
	VFMADD213PD Z10, Z4, Z3; \
	VMULPD    Z1, Z3, Z3; \
	VSCALEFPD Z2, Z3, Z3; \
	VPADDQ.BCST expt<>+184(SB), Z3, Z1; \
	VPTESTNMQ.BCST expt<>+192(SB), Z1, K2; \
	VCMPPD.BCST $0x11, expt<>+200(SB), Z0, K3; \
	KORW      K3, K2, K2; \
	KANDW     K1, K2, K2; \
	KORTESTW  K2, K2

// EXPROW8 is one block of one row: the eight float32 exps of the block at
// ptr less the max in maxY, in Y0 and stored back at ptr, from the fast path
// or from the fallback at the out-of-line label slow (EXPSLOW8), which counts
// the block in DX and returns to back.
#define EXPROW8(ptr, maxY, slow, back) \
	EXPT8(ptr, maxY); \
	JNE slow; \
	VCVTPD2PS.Z Z3, K1, Y0; \
back: \
	VMOVUPS Y0, (ptr)

#define EXPSLOW8(slow, back) \
slow: \
	INCQ DX; \
	EXPPD8M; \
	VCVTPD2PS.Z Z0, K1, Y0; \
	JMP back

// func expSumAVX512(x *float32, n int, max, sum float32) (s float32, slow int)
//
// expSumAVX2's contract on eight lanes, n%8 == 0, n > 0; slow counts the
// blocks that took the fallback. The fast path (EXPT8) computes e^z in
// float64 as 2^(k/16)·p(r): k = round(z·16/ln2) through the shifter, r = z −
// k·ln2/16 in one fused step (the constant's own error adds under 2^-48 at
// |k| ≤ 2400), 2^(j/16) for j = k mod 16 from the table by VPERMI2PD, p the
// degree-4 near-minimax polynomial of e^r (|r| ≤ ln2/32, error 2^-38.5
// relative) and the power 2^⌊k/16⌋ by VSCALEFPD: within 2^14.6 ulps of the
// float64 math.Exp returns (itself within one ulp of e^z). Rounding that to
// float32 drops 29 mantissa bits, and both values round alike unless the
// dropped bits of the fast one lie within 2^16 ulps of the midpoint 2^28:
// (bits + 2^28 + 2^16) has no bit of [17, 29) set exactly there, about one
// lane in 4000 and one block in 500. A block with such a lane, or with a live
// lane below -87 (where float32(e^z) is subnormal and drops more bits), is
// recomputed by EXPPD8M — math.archExp's instruction sequence, expSumAVX2's
// lanes — so every lane is float32(math.Exp(float64(z))); TestVecExpPin
// checks that on every float32 in [-105, 0]. The -104 clamp is the zeroing
// mask K1 of the final conversion, which also hides the fast path's NaN on a
// -Inf lane. The float32 sum is carried serially, in lane order, by scalar
// adds that read the stored block back; that chain of adds, not the exp, sets
// the pace of one row, which is why prefill attention runs the tile's
// lane-parallel sums instead (tileExpSumAVX512).
TEXT ·expSumAVX512(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ DX, DX
	VBROADCASTSS max+16(FP), Y6
	VMOVSS sum+20(FP), X5
	EXPTK
block:
	EXPROW8(SI, Y6, slow, back)
	VADDSS  (SI), X5, X5
	VADDSS  4(SI), X5, X5
	VADDSS  8(SI), X5, X5
	VADDSS  12(SI), X5, X5
	VADDSS  16(SI), X5, X5
	VADDSS  20(SI), X5, X5
	VADDSS  24(SI), X5, X5
	VADDSS  28(SI), X5, X5
	ADDQ $32, SI
	SUBQ $8, CX
	JGT  block
	VMOVSS X5, s+24(FP)
	MOVQ   DX, slow+32(FP)
	VZEROUPPER
	RET
	EXPSLOW8(slow, back)

// The score-tile kernels of prefill attention (ScoreTile, DESIGN.md §12),
// whose dot K-means runs too (TileDot).
// The tile is key-major: one 64-byte row per key, holding that key's score,
// and later its exp, for sixteen queries, one per lane. Every lane is one
// query's FullN chain: its dot products add their channels in ascending
// order from +0 and are then scaled, its exps are the table exp's, its sum
// adds them in key order, and its outputs add the value rows in key order.

// TDOT8(c) adds channel c of the current four-channel step into the scores
// of the eight keys at R8 (keys 1, 2 at CX and 2·CX past it, 3 at R9, 4 at
// 4·CX past R8, 5 at 2·CX past R9, 6 at R10 and 7 at CX past it), Z16-Z23:
// Qᵀ's row of channel c, at 64·c(R11), times the key's channel c broadcast
// from memory.
#define TDOT8(c) \
	VMOVUPS     (c*64)(R11), Z0; \
	VMULPS.BCST (c*4)(R8), Z0, Z1; \
	VADDPS      Z1, Z16, Z16; \
	VMULPS.BCST (c*4)(R8)(CX*1), Z0, Z2; \
	VADDPS      Z2, Z17, Z17; \
	VMULPS.BCST (c*4)(R8)(CX*2), Z0, Z3; \
	VADDPS      Z3, Z18, Z18; \
	VMULPS.BCST (c*4)(R9), Z0, Z4; \
	VADDPS      Z4, Z19, Z19; \
	VMULPS.BCST (c*4)(R8)(CX*4), Z0, Z5; \
	VADDPS      Z5, Z20, Z20; \
	VMULPS.BCST (c*4)(R9)(CX*2), Z0, Z6; \
	VADDPS      Z6, Z21, Z21; \
	VMULPS.BCST (c*4)(R10), Z0, Z7; \
	VADDPS      Z7, Z22, Z22; \
	VMULPS.BCST (c*4)(R10)(CX*1), Z0, Z9; \
	VADDPS      Z9, Z23, Z23

// TDOT1(c) is TDOT8 for the one key at R8, into Z16.
#define TDOT1(c) \
	VMOVUPS     (c*64)(R11), Z0; \
	VMULPS.BCST (c*4)(R8), Z0, Z1; \
	VADDPS      Z1, Z16, Z16

// TFIN(acc, k) finishes a key every lane sees: it scales the dot products
// in acc by Z31, takes them into the lanes' max in Z30 and stores them at
// row k of DI. TFINM(acc, k) finishes a key of the causal diagonal: only the
// lanes at or past DX (clamped to 0; R14 is 0 and R15 0xffff) see it and
// take it into their max, the others get -Inf (Z27); DX steps to the next
// key's.
#define TFIN(acc, k) \
	VMULPS  Z31, acc, acc; \
	VMAXPS  acc, Z30, Z30; \
	VMOVUPS acc, (k*64)(DI)

#define TFINM(acc, k) \
	MOVQ      DX, R12; \
	TESTQ     R12, R12; \
	CMOVQLT   R14, R12; \
	SHLXQ     R12, R15, R13; \
	KMOVW     R13, K1; \
	INCQ      DX; \
	VMULPS    Z31, acc, acc; \
	VMAXPS    acc, Z30, K1, Z30; \
	VBLENDMPS acc, Z27, K1, acc; \
	VMOVUPS   acc, (k*64)(DI)

// func tileDotAVX512(rows, qt, keys *float32, m, d int, scale float32, vis int, st *tileState)
//
// The score kernel: for the m > 0 keys keys[i·d:][:d], row i of rows gets,
// in lane j, scale·<Qᵀ's column j, key i>, Qᵀ's channel c at qt[16·c:], and
// -Inf where j < vis+i; d%4 == 0, d > 0, vis+m ≤ 64. Eight keys at a time
// keep their sums in eight registers and take each channel's Qᵀ row once: a
// key channel is broadcast into the multiply from memory, so no key is
// transposed. The lanes that see a key carry their running max in st.max
// across calls; the lane mask is built only for a group of keys that reaches
// the diagonal.
TEXT ·tileDotAVX512(SB), NOSPLIT, $0-64
	MOVQ rows+0(FP), DI
	MOVQ qt+8(FP), SI
	MOVQ keys+16(FP), R8
	MOVQ m+24(FP), BX
	MOVQ d+32(FP), CX
	SHLQ $2, CX
	VBROADCASTSS scale+40(FP), Z31
	MOVQ vis+48(FP), DX
	MOVQ st+56(FP), AX
	VMOVUPS (AX), Z30
	VBROADCASTSS neginf<>(SB), Z27
	XORQ R14, R14
	MOVL $0xffff, R15
tkeys8:
	CMPQ BX, $8
	JLT  tkey1
	LEAQ (R8)(CX*2), R9
	ADDQ CX, R9
	LEAQ (R9)(CX*2), R10
	ADDQ CX, R10
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	MOVQ SI, R11
	MOVQ CX, AX
tchan8:
	TDOT8(0)
	TDOT8(1)
	TDOT8(2)
	TDOT8(3)
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $256, R11
	SUBQ $16, AX
	JGT  tchan8
	CMPQ DX, $-7
	JGT  tmask8 // the group's last key is on the diagonal
	TFIN(Z16, 0)
	TFIN(Z17, 1)
	TFIN(Z18, 2)
	TFIN(Z19, 3)
	TFIN(Z20, 4)
	TFIN(Z21, 5)
	TFIN(Z22, 6)
	TFIN(Z23, 7)
	ADDQ $8, DX
	JMP  tnext8
tmask8:
	TFINM(Z16, 0)
	TFINM(Z17, 1)
	TFINM(Z18, 2)
	TFINM(Z19, 3)
	TFINM(Z20, 4)
	TFINM(Z21, 5)
	TFINM(Z22, 6)
	TFINM(Z23, 7)
tnext8:
	ADDQ $512, DI
	LEAQ (R10)(CX*1), R8 // R10 has stepped to key 7's end: the next key
	SUBQ $8, BX
	JMP  tkeys8
tkey1:
	TESTQ BX, BX
	JEQ   tdone
	VPXORD Z16, Z16, Z16
	MOVQ SI, R11
	MOVQ CX, AX
tchan1:
	TDOT1(0)
	TDOT1(1)
	TDOT1(2)
	TDOT1(3)
	ADDQ $16, R8
	ADDQ $256, R11
	SUBQ $16, AX
	JGT  tchan1
	TFINM(Z16, 0)
	ADDQ $64, DI
	DECQ BX
	JMP  tkey1
tdone:
	MOVQ st+56(FP), AX
	VMOVUPS Z30, (AX)
	VZEROUPPER
	RET

// func tileExpSumAVX512(rows *float32, m int, st *tileState) (slow int)
//
// The softmax kernel: for the m > 0 rows of the tile, every lane's score x
// becomes float32(math.Exp(float64(x − st.max[lane]))) and is added to
// st.sum[lane]; slow counts the 8-lane halves that took the fallback. Each
// row is two blocks of EXPROW8, the table exp of expSumAVX512 with its
// fallback, the lanes of a block being eight queries; the sums are the
// lanes of Y5 | Y9, one VADDPS a half, so every query's sum adds its exps
// serially in key order. A -Inf score (a key the query does not see) is
// clamped to +0, which leaves the sum as it was; a NaN or +Inf score makes
// the lane's sum NaN.
TEXT ·tileExpSumAVX512(SB), NOSPLIT, $0-32
	MOVQ rows+0(FP), SI
	MOVQ m+8(FP), CX
	MOVQ st+16(FP), R9
	VMOVUPS (R9), Y6
	VMOVUPS 32(R9), Y7
	VMOVUPS 64(R9), Y5
	VMOVUPS 96(R9), Y9
	XORQ DX, DX
	EXPTK
	LEAQ 32(SI), R8
trow:
	EXPROW8(SI, Y6, tslow0, tback0)
	VADDPS Y0, Y5, Y5
	EXPROW8(R8, Y7, tslow1, tback1)
	VADDPS Y0, Y9, Y9
	ADDQ $64, SI
	ADDQ $64, R8
	DECQ CX
	JGT  trow
	VMOVUPS Y5, 64(R9)
	VMOVUPS Y9, 96(R9)
	MOVQ DX, slow+24(FP)
	VZEROUPPER
	RET
	EXPSLOW8(tslow0, tback0)
	EXPSLOW8(tslow1, tback1)

// TAXPY(c, acc) adds the weights in Z0 times channel c of the value row at
// R8 (broadcast from memory) into channel c's accumulator acc, in the lanes
// of K1.
#define TAXPY(c, acc) \
	VMULPS.BCST (c*4)(R8), Z0, Z1; \
	VADDPS      Z1, acc, K1, acc

// TMASK(next) sets K1 to the lanes that see the value row, those at or past
// DX (R9 is 0xffff), where DX > 0: rows before the causal diagonal keep the
// every-lane K1 that TWEIGHTS sets. DX steps to the next row's.
#define TMASK(next) \
	TESTQ DX, DX; \
	JLE   next; \
	SHLXQ DX, R9, R13; \
	KMOVW R13, K1; \
next: \
	INCQ  DX

// TLOAD and TSTORE move the accumulator of channel c of the block at DI.
#define TLOAD(c, acc) VMOVUPS (c*64)(DI), acc
#define TSTORE(c, acc) VMOVUPS acc, (c*64)(DI)

// func tileAxpyAVX512(acc, rows, inv *float32, vals *float32, m, d, vis int)
//
// The weighted-sum kernel: for the m > 0 rows i of the tile ascending, lane
// j's weight p = rows[i][j]·inv[j] times value row i, vals[i·d:][:d], is
// added into acc[16·c + j] for every channel c and every lane j ≥ vis+i, the
// lanes that see key i; the others are left as they are, so a NaN or ±Inf in
// a row a lane does not see stays out of it. d%4 == 0, d > 0, vis+m ≤ 64.
// The channels go in blocks of 16, then 8, then 4, one accumulator each,
// with the queries in the lanes: a value channel is broadcast into the
// multiply, and every output adds its products in key order, as
// AddScaledRows' lanes do.
TEXT ·tileAxpyAVX512(SB), NOSPLIT, $0-56
	// TWEIGHTS starts a walk of a channel block: SI at the tile's first
	// row, R8 at the block's channels of value row 0, BX the m rows, DX
	// row 0's first seeing lane, K1 every lane.
#define TWEIGHTS \
	MOVQ  rows+8(FP), SI; \
	MOVQ  R10, R8; \
	MOVQ  m+32(FP), BX; \
	MOVQ  vis+48(FP), DX; \
	KMOVW R9, K1

	MOVQ acc+0(FP), DI
	MOVQ inv+16(FP), AX
	VMOVUPS (AX), Z31
	MOVL $0xffff, R9
	MOVQ vals+24(FP), R10 // channel c0 of value row 0
	MOVQ d+40(FP), CX
	SHLQ $2, CX
	MOVQ CX, R11 // channel bytes left
tc16:
	CMPQ R11, $64
	JLT  tc8
	TLOAD(0, Z15)
	TLOAD(1, Z16)
	TLOAD(2, Z17)
	TLOAD(3, Z18)
	TLOAD(4, Z19)
	TLOAD(5, Z20)
	TLOAD(6, Z21)
	TLOAD(7, Z22)
	TLOAD(8, Z23)
	TLOAD(9, Z24)
	TLOAD(10, Z25)
	TLOAD(11, Z26)
	TLOAD(12, Z27)
	TLOAD(13, Z28)
	TLOAD(14, Z29)
	TLOAD(15, Z30)
	TWEIGHTS
tr16:
	TMASK(tm16)
	VMULPS (SI), Z31, Z0
	TAXPY(0, Z15)
	TAXPY(1, Z16)
	TAXPY(2, Z17)
	TAXPY(3, Z18)
	TAXPY(4, Z19)
	TAXPY(5, Z20)
	TAXPY(6, Z21)
	TAXPY(7, Z22)
	TAXPY(8, Z23)
	TAXPY(9, Z24)
	TAXPY(10, Z25)
	TAXPY(11, Z26)
	TAXPY(12, Z27)
	TAXPY(13, Z28)
	TAXPY(14, Z29)
	TAXPY(15, Z30)
	ADDQ $64, SI
	ADDQ CX, R8
	DECQ BX
	JGT  tr16
	TSTORE(0, Z15)
	TSTORE(1, Z16)
	TSTORE(2, Z17)
	TSTORE(3, Z18)
	TSTORE(4, Z19)
	TSTORE(5, Z20)
	TSTORE(6, Z21)
	TSTORE(7, Z22)
	TSTORE(8, Z23)
	TSTORE(9, Z24)
	TSTORE(10, Z25)
	TSTORE(11, Z26)
	TSTORE(12, Z27)
	TSTORE(13, Z28)
	TSTORE(14, Z29)
	TSTORE(15, Z30)
	ADDQ $1024, DI
	ADDQ $64, R10
	SUBQ $64, R11
	JMP  tc16
tc8:
	CMPQ R11, $32
	JLT  tc4
	TLOAD(0, Z15)
	TLOAD(1, Z16)
	TLOAD(2, Z17)
	TLOAD(3, Z18)
	TLOAD(4, Z19)
	TLOAD(5, Z20)
	TLOAD(6, Z21)
	TLOAD(7, Z22)
	TWEIGHTS
tr8:
	TMASK(tm8)
	VMULPS (SI), Z31, Z0
	TAXPY(0, Z15)
	TAXPY(1, Z16)
	TAXPY(2, Z17)
	TAXPY(3, Z18)
	TAXPY(4, Z19)
	TAXPY(5, Z20)
	TAXPY(6, Z21)
	TAXPY(7, Z22)
	ADDQ $64, SI
	ADDQ CX, R8
	DECQ BX
	JGT  tr8
	TSTORE(0, Z15)
	TSTORE(1, Z16)
	TSTORE(2, Z17)
	TSTORE(3, Z18)
	TSTORE(4, Z19)
	TSTORE(5, Z20)
	TSTORE(6, Z21)
	TSTORE(7, Z22)
	ADDQ $512, DI
	ADDQ $32, R10
	SUBQ $32, R11
tc4:
	CMPQ R11, $16
	JLT  tadone
	TLOAD(0, Z15)
	TLOAD(1, Z16)
	TLOAD(2, Z17)
	TLOAD(3, Z18)
	TWEIGHTS
tr4:
	TMASK(tm4)
	VMULPS (SI), Z31, Z0
	TAXPY(0, Z15)
	TAXPY(1, Z16)
	TAXPY(2, Z17)
	TAXPY(3, Z18)
	ADDQ $64, SI
	ADDQ CX, R8
	DECQ BX
	JGT  tr4
	TSTORE(0, Z15)
	TSTORE(1, Z16)
	TSTORE(2, Z17)
	TSTORE(3, Z18)
tadone:
	VZEROUPPER
	RET

// The score tile's AVX2 kernels: the AVX-512 kernels' contract and layout,
// each 16-lane row of the tile as two YMM halves, lanes 0-7 | 8-15. A lane
// mask is a YMM pair built by comparing the first seeing lane, broadcast,
// against the lane numbers (tlanes, 0-15 as int32, two a DATA word), and it
// is applied by VBLENDVPS: the lanes that do not see a key keep what they
// held.
DATA tlanes<>+0(SB)/8, $0x0000000100000000
DATA tlanes<>+8(SB)/8, $0x0000000300000002
DATA tlanes<>+16(SB)/8, $0x0000000500000004
DATA tlanes<>+24(SB)/8, $0x0000000700000006
DATA tlanes<>+32(SB)/8, $0x0000000900000008
DATA tlanes<>+40(SB)/8, $0x0000000b0000000a
DATA tlanes<>+48(SB)/8, $0x0000000d0000000c
DATA tlanes<>+56(SB)/8, $0x0000000f0000000e
GLOBL tlanes<>(SB), RODATA|NOPTR, $64

// YHIDE(reg, xlo, lo, hi) sets lo | hi (xlo being lo's lower half) to the
// lanes below reg's value, those that do not see the key: all ones where
// reg > lane as int32, else zero.
#define YHIDE(reg, xlo, lo, hi) \
	VMOVQ        reg, xlo; \
	VPBROADCASTD xlo, lo; \
	VPCMPGTD     tlanes<>+32(SB), lo, hi; \
	VPCMPGTD     tlanes<>(SB), lo, lo

// YDOT1(key, lo, hi) adds Qᵀ's row of a channel, in Y0 | Y1, times the key
// channel at key, broadcast, into the key's scores lo | hi. YDOT4(c) does it
// for channel c of the current four-channel step, Qᵀ's row at 64·c(R11), and
// the four keys at R8 (keys 1, 2 at CX and 2·CX past it, 3 at R9), key k's
// scores in Y(8+2k) | Y(9+2k).
#define YDOT1(key, lo, hi) \
	VBROADCASTSS key, Y2; \
	VMULPS       Y2, Y0, Y3; \
	VADDPS       Y3, lo, lo; \
	VMULPS       Y2, Y1, Y3; \
	VADDPS       Y3, hi, hi

#define YDOT4(c) \
	VMOVUPS (c*64)(R11), Y0; \
	VMOVUPS (c*64+32)(R11), Y1; \
	YDOT1((c*4)(R8), Y8, Y9); \
	YDOT1((c*4)(R8)(CX*1), Y10, Y11); \
	YDOT1((c*4)(R8)(CX*2), Y12, Y13); \
	YDOT1((c*4)(R9), Y14, Y15)

// YFIN(lo, hi, k) finishes a key every lane sees: it scales the dot products
// in lo | hi by Y6, takes them into the lanes' max in Y4 | Y5 and stores them
// at row k of DI. YFINM(lo, hi, k) finishes a key of the causal diagonal:
// the lanes below DX keep their max and get -Inf (Y7); DX steps to the next
// key's.
#define YFIN(lo, hi, k) \
	VMULPS  Y6, lo, lo; \
	VMULPS  Y6, hi, hi; \
	VMAXPS  lo, Y4, Y4; \
	VMAXPS  hi, Y5, Y5; \
	VMOVUPS lo, (k*64)(DI); \
	VMOVUPS hi, (k*64+32)(DI)

#define YFINM(lo, hi, k) \
	YHIDE(DX, X0, Y0, Y1); \
	INCQ      DX; \
	VMULPS    Y6, lo, lo; \
	VMULPS    Y6, hi, hi; \
	VMAXPS    lo, Y4, Y2; \
	VMAXPS    hi, Y5, Y3; \
	VBLENDVPS Y0, Y4, Y2, Y4; \
	VBLENDVPS Y1, Y5, Y3, Y5; \
	VBLENDVPS Y0, Y7, lo, lo; \
	VBLENDVPS Y1, Y7, hi, hi; \
	VMOVUPS   lo, (k*64)(DI); \
	VMOVUPS   hi, (k*64+32)(DI)

// func tileDotAVX2(rows, qt, keys *float32, m, d int, scale float32, vis int, st *tileState)
//
// tileDotAVX512's contract on YMM halves, for any vis: four keys at a time
// keep their sums in eight registers and take each channel's Qᵀ row once,
// with the key channel broadcast; the lane masks are built only for a group
// of keys that reaches the diagonal.
TEXT ·tileDotAVX2(SB), NOSPLIT, $0-64
	MOVQ rows+0(FP), DI
	MOVQ qt+8(FP), SI
	MOVQ keys+16(FP), R8
	MOVQ m+24(FP), BX
	MOVQ d+32(FP), CX
	SHLQ $2, CX
	VBROADCASTSS scale+40(FP), Y6
	MOVQ vis+48(FP), DX
	MOVQ st+56(FP), AX
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	VBROADCASTSS neginf<>(SB), Y7
ykeys4:
	CMPQ BX, $4
	JLT  ykey1
	LEAQ (R8)(CX*2), R9
	ADDQ CX, R9
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	MOVQ SI, R11
	MOVQ CX, AX
ychan4:
	YDOT4(0)
	YDOT4(1)
	YDOT4(2)
	YDOT4(3)
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $256, R11
	SUBQ $16, AX
	JGT  ychan4
	CMPQ DX, $-3
	JGT  ymask4 // the group's last key is on the diagonal
	YFIN(Y8, Y9, 0)
	YFIN(Y10, Y11, 1)
	YFIN(Y12, Y13, 2)
	YFIN(Y14, Y15, 3)
	ADDQ $4, DX
	JMP  ynext4
ymask4:
	YFINM(Y8, Y9, 0)
	YFINM(Y10, Y11, 1)
	YFINM(Y12, Y13, 2)
	YFINM(Y14, Y15, 3)
ynext4:
	ADDQ $256, DI
	MOVQ R9, R8 // R9 has stepped to key 3's end: the next key
	SUBQ $4, BX
	JMP  ykeys4
ykey1:
	TESTQ BX, BX
	JEQ   ydone
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	MOVQ SI, R11
	MOVQ CX, AX
ychan1:
	VMOVUPS (R11), Y0
	VMOVUPS 32(R11), Y1
	YDOT1((R8), Y8, Y9)
	VMOVUPS 64(R11), Y0
	VMOVUPS 96(R11), Y1
	YDOT1(4(R8), Y8, Y9)
	VMOVUPS 128(R11), Y0
	VMOVUPS 160(R11), Y1
	YDOT1(8(R8), Y8, Y9)
	VMOVUPS 192(R11), Y0
	VMOVUPS 224(R11), Y1
	YDOT1(12(R8), Y8, Y9)
	ADDQ $16, R8
	ADDQ $256, R11
	SUBQ $16, AX
	JGT  ychan1
	YFINM(Y8, Y9, 0)
	ADDQ $64, DI
	DECQ BX
	JMP  ykey1
ydone:
	MOVQ st+56(FP), AX
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	VZEROUPPER
	RET

// YEXP4(off) turns the four scores at byte off of the row at SI into their
// exps less the lanes' max, st.max at R9, stores them back and adds them
// into the lanes' sums, st.sum at 64(R9): expSumAVX2's block, one lane a
// query.
#define YEXP4(off) \
	VMOVUPS    (off)(SI), X0; \
	VSUBPS     (off)(R9), X0, X0; \
	VCVTPS2PD  X0, Y0; \
	VCMPPD     $0x11, Y8, Y0, Y3; \
	EXPPD4; \
	VANDNPD    Y0, Y3, Y0; \
	VCVTPD2PSY Y0, X0; \
	VMOVUPS    X0, (off)(SI); \
	VADDPS     (64+off)(R9), X0, X0; \
	VMOVUPS    X0, (64+off)(R9)

// func tileExpSumAVX2(rows *float32, m int, st *tileState)
//
// tileExpSumAVX512's contract with expSumAVX2's exp: for the m > 0 rows of
// the tile, every lane's score x becomes float32(math.Exp(float64(x −
// st.max[lane]))), math.archExp's instruction sequence on four float64
// lanes (EXPPD4), and is added to st.sum[lane], so every query's sum adds
// its exps serially in key order. Below -104, and so on a -Inf score, the
// exp is +0, which leaves the sum as it was; a NaN or +Inf score makes the
// lane's sum NaN. The sums stay in st: EXPPD4's constants take the
// registers.
TEXT ·tileExpSumAVX2(SB), NOSPLIT, $0-24
	MOVQ rows+0(FP), SI
	MOVQ m+8(FP), CX
	MOVQ st+16(FP), R9
	EXPK4
	VBROADCASTSD expk<>+56(SB), Y8
yrow:
	YEXP4(0)
	YEXP4(16)
	YEXP4(32)
	YEXP4(48)
	ADDQ $64, SI
	DECQ CX
	JGT  yrow
	VZEROUPPER
	RET

// YAXPY(c, lo, hi) adds the weights in Y0 | Y1 times channel c of the value
// row at R8 (broadcast) into channel c's accumulators lo | hi. YAXPYM does
// it in the lanes that see the row alone: the others, Y14 | Y15, keep their
// accumulators' bits.
#define YAXPY(c, lo, hi) \
	VBROADCASTSS (c*4)(R8), Y2; \
	VMULPS       Y2, Y0, Y3; \
	VADDPS       Y3, lo, lo; \
	VMULPS       Y2, Y1, Y3; \
	VADDPS       Y3, hi, hi

#define YAXPYM(c, lo, hi) \
	VBROADCASTSS (c*4)(R8), Y2; \
	VMULPS       Y2, Y0, Y3; \
	VADDPS       Y3, lo, Y3; \
	VBLENDVPS    Y14, lo, Y3, lo; \
	VMULPS       Y2, Y1, Y3; \
	VADDPS       Y3, hi, Y3; \
	VBLENDVPS    Y15, hi, Y3, hi

// YWEIGHTS sets Y0 | Y1 to the weights of the tile row at SI, its exps
// times the lanes' 1/sum in Y12 | Y13.
#define YWEIGHTS \
	VMULPS (SI), Y12, Y0; \
	VMULPS 32(SI), Y13, Y1

// func tileAxpyAVX2(acc, rows, inv *float32, vals *float32, m, d, vis int)
//
// tileAxpyAVX512's contract on YMM halves: the channels go in blocks of 4,
// eight accumulators, while the m rows stream past. The rows before the
// causal diagonal (DX ≤ 0) add into every lane; from the diagonal on, each
// row's add is blended into the lanes that see it, so a NaN or ±Inf in a
// row a lane does not see stays out of it.
TEXT ·tileAxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ inv+16(FP), AX
	VMOVUPS (AX), Y12
	VMOVUPS 32(AX), Y13
	MOVQ vals+24(FP), R10 // channel c0 of value row 0
	MOVQ d+40(FP), CX
	SHLQ $2, CX
	MOVQ CX, R11 // channel bytes left
yc4:
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	VMOVUPS 128(DI), Y8
	VMOVUPS 160(DI), Y9
	VMOVUPS 192(DI), Y10
	VMOVUPS 224(DI), Y11
	MOVQ rows+8(FP), SI
	MOVQ R10, R8
	MOVQ m+32(FP), BX
	MOVQ vis+48(FP), DX
yr4:
	TESTQ DX, DX
	JGT   yrm4 // the causal diagonal: every later row is masked
	YWEIGHTS
	YAXPY(0, Y4, Y5)
	YAXPY(1, Y6, Y7)
	YAXPY(2, Y8, Y9)
	YAXPY(3, Y10, Y11)
	ADDQ $64, SI
	ADDQ CX, R8
	INCQ DX
	DECQ BX
	JGT  yr4
	JMP  ys4
yrm4:
	YHIDE(DX, X14, Y14, Y15)
	YWEIGHTS
	YAXPYM(0, Y4, Y5)
	YAXPYM(1, Y6, Y7)
	YAXPYM(2, Y8, Y9)
	YAXPYM(3, Y10, Y11)
	ADDQ $64, SI
	ADDQ CX, R8
	INCQ DX
	DECQ BX
	JGT  yrm4
ys4:
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	VMOVUPS Y8, 128(DI)
	VMOVUPS Y9, 160(DI)
	VMOVUPS Y10, 192(DI)
	VMOVUPS Y11, 224(DI)
	ADDQ $256, DI
	ADDQ $16, R10
	SUBQ $16, R11
	JGT  yc4
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

// The group kernels of decode attention over shared pages (DESIGN.md §12):
// the queries of G streams that hold the same K/V pages attend them in one
// pass. GroupDot's page is transposed once (keysTAVX2) into tiles of 8 or 16
// keys, channel-major, and scored with the keys in the lanes and each
// member's query channel broadcast: every lane is one (member, key) dot
// product with its channels added in ascending order from +0, then scaled,
// as DotRows' lanes. The exp-sum kernels run the members' rows block by
// block, each row's sum its own serial chain, so the chains of different
// members overlap. The weighted-sum kernels hold four members' outputs,
// channels in the lanes, while each value row is loaded once for all four.

// func keysTAVX2(dst, src *float32, nb, d, cs, ts, ss int)
//
// Transposes nb blocks of eight key rows of d channels (d%4 == 0, d > 0,
// nb > 0), block b at src + b·ss bytes, into dst: channel c of block b's
// eight keys at dst + b·ts + c·cs bytes, the keys in the lanes.
TEXT ·keysTAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), SI
	MOVQ src+8(FP), R8
	MOVQ nb+16(FP), BX
	MOVQ d+24(FP), CX
	SHLQ $2, CX
	MOVQ cs+32(FP), DX
kblock:
	ROWS8
	MOVQ SI, DI
	XORQ AX, AX
kchunk:
	TRANS8CHUNK
	VMOVUPS Y1, (DI)
	ADDQ    DX, DI
	VMOVUPS Y2, (DI)
	ADDQ    DX, DI
	VMOVUPS Y3, (DI)
	ADDQ    DX, DI
	VMOVUPS Y4, (DI)
	ADDQ    DX, DI
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     kchunk
	ADDQ    ts+40(FP), SI
	ADDQ    ss+48(FP), R8
	DECQ    BX
	JGT     kblock
	VZEROUPPER
	RET

// func groupDotAVX512(dst, q **float32, nq int, kt *float32, m, d int, scale float32, i0 int)
//
// For each member k < nq: dst[k][i0+i] = scale·<q[k], key i> for the m keys
// (m%16 == 0, m > 0) of the 16-key tiles at kt, tile t's channel c at
// kt[(t·d+c)·16:]; d > 0. Members go in pairs, four tiles at a time: eight
// sums in flight, each tile channel loaded once and each query channel
// broadcast once for the pair's four tiles; a last odd member takes the
// four tiles alone.
TEXT ·groupDotAVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), R12
	MOVQ q+8(FP), R13
	MOVQ nq+16(FP), R14
	MOVQ d+40(FP), CX
	SHLQ $6, CX // one tile's bytes
	VBROADCASTSS scale+48(FP), Z31
zpair:
	CMPQ R14, $2
	JLT  zmember
	MOVQ i0+56(FP), AX
	MOVQ (R12), DI
	LEAQ (DI)(AX*4), DI
	MOVQ 8(R12), DX
	LEAQ (DX)(AX*4), DX
	MOVQ (R13), SI
	MOVQ 8(R13), R15
	MOVQ kt+24(FP), R8
	MOVQ m+32(FP), BX
ptiles4:
	CMPQ BX, $64
	JLT  ptile1
	MOVQ R8, R9
	LEAQ (R8)(CX*2), R10
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	XORQ R11, R11
	MOVQ d+40(FP), AX
pchan4:
	VMOVUPS (R9), Z8
	VMOVUPS (R9)(CX*1), Z9
	VMOVUPS (R10), Z10
	VMOVUPS (R10)(CX*1), Z11
	VBROADCASTSS (SI)(R11*1), Z12
	VBROADCASTSS (R15)(R11*1), Z13
	VMULPS  Z8, Z12, Z14
	VADDPS  Z14, Z0, Z0
	VMULPS  Z9, Z12, Z15
	VADDPS  Z15, Z1, Z1
	VMULPS  Z10, Z12, Z16
	VADDPS  Z16, Z2, Z2
	VMULPS  Z11, Z12, Z17
	VADDPS  Z17, Z3, Z3
	VMULPS  Z8, Z13, Z18
	VADDPS  Z18, Z4, Z4
	VMULPS  Z9, Z13, Z19
	VADDPS  Z19, Z5, Z5
	VMULPS  Z10, Z13, Z20
	VADDPS  Z20, Z6, Z6
	VMULPS  Z11, Z13, Z21
	VADDPS  Z21, Z7, Z7
	ADDQ    $4, R11
	ADDQ    $64, R9
	ADDQ    $64, R10
	DECQ    AX
	JGT     pchan4
	VMULPS  Z31, Z0, Z0
	VMULPS  Z31, Z1, Z1
	VMULPS  Z31, Z2, Z2
	VMULPS  Z31, Z3, Z3
	VMULPS  Z31, Z4, Z4
	VMULPS  Z31, Z5, Z5
	VMULPS  Z31, Z6, Z6
	VMULPS  Z31, Z7, Z7
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, 64(DX)
	VMOVUPS Z6, 128(DX)
	VMOVUPS Z7, 192(DX)
	ADDQ    $256, DI
	ADDQ    $256, DX
	LEAQ    (R8)(CX*4), R8
	SUBQ    $64, BX
	JMP     ptiles4
ptile1:
	TESTQ BX, BX
	JEQ   pnext
	MOVQ  R8, R9
	VPXORD Z0, Z0, Z0
	VPXORD Z4, Z4, Z4
	XORQ  R11, R11
	MOVQ  d+40(FP), AX
pchan1:
	VMOVUPS (R9), Z8
	VBROADCASTSS (SI)(R11*1), Z12
	VBROADCASTSS (R15)(R11*1), Z13
	VMULPS  Z8, Z12, Z14
	VADDPS  Z14, Z0, Z0
	VMULPS  Z8, Z13, Z18
	VADDPS  Z18, Z4, Z4
	ADDQ    $4, R11
	ADDQ    $64, R9
	DECQ    AX
	JGT     pchan1
	VMULPS  Z31, Z0, Z0
	VMULPS  Z31, Z4, Z4
	VMOVUPS Z0, (DI)
	VMOVUPS Z4, (DX)
	ADDQ    $64, DI
	ADDQ    $64, DX
	ADDQ    CX, R8
	SUBQ    $16, BX
	JMP     ptile1
pnext:
	ADDQ $16, R12
	ADDQ $16, R13
	SUBQ $2, R14
	JMP  zpair
zmember:
	TESTQ R14, R14
	JEQ   zdone
	MOVQ i0+56(FP), AX
	MOVQ (R12), DI
	LEAQ (DI)(AX*4), DI
	MOVQ (R13), SI
	MOVQ kt+24(FP), R8
	MOVQ m+32(FP), BX
ztiles4:
	CMPQ BX, $64
	JLT  ztile1
	MOVQ R8, R9
	LEAQ (R8)(CX*2), R10
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	MOVQ SI, R11
	MOVQ d+40(FP), AX
zchan4:
	VBROADCASTSS (R11), Z4
	VMULPS  (R9), Z4, Z5
	VADDPS  Z5, Z0, Z0
	VMULPS  (R9)(CX*1), Z4, Z6
	VADDPS  Z6, Z1, Z1
	VMULPS  (R10), Z4, Z7
	VADDPS  Z7, Z2, Z2
	VMULPS  (R10)(CX*1), Z4, Z8
	VADDPS  Z8, Z3, Z3
	ADDQ    $4, R11
	ADDQ    $64, R9
	ADDQ    $64, R10
	DECQ    AX
	JGT     zchan4
	VMULPS  Z31, Z0, Z0
	VMULPS  Z31, Z1, Z1
	VMULPS  Z31, Z2, Z2
	VMULPS  Z31, Z3, Z3
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ    $256, DI
	LEAQ    (R8)(CX*4), R8
	SUBQ    $64, BX
	JMP     ztiles4
ztile1:
	TESTQ BX, BX
	JEQ   zdone
	MOVQ  R8, R9
	VPXORD Z0, Z0, Z0
	MOVQ  SI, R11
	MOVQ  d+40(FP), AX
zchan1:
	VBROADCASTSS (R11), Z4
	VMULPS  (R9), Z4, Z5
	VADDPS  Z5, Z0, Z0
	ADDQ    $4, R11
	ADDQ    $64, R9
	DECQ    AX
	JGT     zchan1
	VMULPS  Z31, Z0, Z0
	VMOVUPS Z0, (DI)
	ADDQ    $64, DI
	ADDQ    CX, R8
	SUBQ    $16, BX
	JMP     ztile1
zdone:
	VZEROUPPER
	RET

// func groupDotAVX2(dst, q **float32, g int, kt *float32, m, d int, scale float32)
//
// groupDotAVX512 on 8-key tiles (m%8 == 0), tile t's channel c at
// kt[(t·d+c)·8:].
TEXT ·groupDotAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), R12
	MOVQ q+8(FP), R13
	MOVQ nq+16(FP), R14
	MOVQ d+40(FP), CX
	SHLQ $5, CX // one tile's bytes
	VBROADCASTSS scale+48(FP), Y15
ymember:
	MOVQ i0+56(FP), AX
	MOVQ (R12), DI
	LEAQ (DI)(AX*4), DI
	MOVQ (R13), SI
	MOVQ kt+24(FP), R8
	MOVQ m+32(FP), BX
ytiles4:
	CMPQ BX, $32
	JLT  ytile1
	MOVQ R8, R9
	LEAQ (R8)(CX*2), R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, R11
	MOVQ d+40(FP), AX
ychan4:
	VBROADCASTSS (R11), Y4
	VMULPS  (R9), Y4, Y5
	VADDPS  Y5, Y0, Y0
	VMULPS  (R9)(CX*1), Y4, Y6
	VADDPS  Y6, Y1, Y1
	VMULPS  (R10), Y4, Y7
	VADDPS  Y7, Y2, Y2
	VMULPS  (R10)(CX*1), Y4, Y8
	VADDPS  Y8, Y3, Y3
	ADDQ    $4, R11
	ADDQ    $32, R9
	ADDQ    $32, R10
	DECQ    AX
	JGT     ychan4
	VMULPS  Y15, Y0, Y0
	VMULPS  Y15, Y1, Y1
	VMULPS  Y15, Y2, Y2
	VMULPS  Y15, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R8)(CX*4), R8
	SUBQ    $32, BX
	JMP     ytiles4
ytile1:
	TESTQ BX, BX
	JEQ   ynext
	MOVQ  R8, R9
	VXORPS Y0, Y0, Y0
	MOVQ  SI, R11
	MOVQ  d+40(FP), AX
ychan1:
	VBROADCASTSS (R11), Y4
	VMULPS  (R9), Y4, Y5
	VADDPS  Y5, Y0, Y0
	ADDQ    $4, R11
	ADDQ    $32, R9
	DECQ    AX
	JGT     ychan1
	VMULPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    CX, R8
	SUBQ    $8, BX
	JMP     ytile1
ynext:
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ R14
	JGT  ymember
	VZEROUPPER
	RET

// func groupAxpyAVX512(outs, ws **float32, nq int, vals *float32, m, d, i0 int)
//
// For the members k < nq (4 ≤ nq ≤ 8; outs and ws hold eight entries) and
// the m > 0 value rows i ascending: outs[k][c] += ws[k][i0+i]·vals[i·d + c] for
// every channel c (d%16 == 0, d > 0). Sixteen channels of every member's
// outputs are held in registers (Z0-Z7) while the rows stream past, so a
// value row is loaded once for all the members and every output adds its
// products in row order, as AddScaledRows' lanes do. Members 4 to 7 are
// skipped past nq, in every row, so each member costs one multiply and one
// add a row.
TEXT ·groupAxpyAVX512(SB), NOSPLIT, $0-56
	MOVQ outs+0(FP), R13
	MOVQ ws+8(FP), DI
	MOVQ (DI), AX
	MOVQ 8(DI), BX
	MOVQ 16(DI), DX
	MOVQ 24(DI), SI
	MOVQ 32(DI), R8
	MOVQ 40(DI), R9
	MOVQ 48(DI), R10
	MOVQ 56(DI), R11
	MOVQ i0+48(FP), R14 // the weights' first index
	SHLQ $2, R14
	ADDQ R14, AX
	ADDQ R14, BX
	ADDQ R14, DX
	ADDQ R14, SI
	ADDQ R14, R8
	ADDQ R14, R9
	ADDQ R14, R10
	ADDQ R14, R11
	MOVQ nq+16(FP), R12
	MOVQ d+40(FP), CX
	SHLQ $2, CX
	XORQ R15, R15 // the channel block's byte offset
ablock:
	MOVQ (R13), DI
	VMOVUPS (DI)(R15*1), Z0
	MOVQ 8(R13), DI
	VMOVUPS (DI)(R15*1), Z1
	MOVQ 16(R13), DI
	VMOVUPS (DI)(R15*1), Z2
	MOVQ 24(R13), DI
	VMOVUPS (DI)(R15*1), Z3
	CMPQ R12, $5
	JLT  aload
	MOVQ 32(R13), DI
	VMOVUPS (DI)(R15*1), Z4
	CMPQ R12, $6
	JLT  aload
	MOVQ 40(R13), DI
	VMOVUPS (DI)(R15*1), Z5
	CMPQ R12, $7
	JLT  aload
	MOVQ 48(R13), DI
	VMOVUPS (DI)(R15*1), Z6
	CMPQ R12, $8
	JLT  aload
	MOVQ 56(R13), DI
	VMOVUPS (DI)(R15*1), Z7
aload:
	MOVQ vals+24(FP), DI
	ADDQ R15, DI
	XORQ R14, R14
arow:
	VMOVUPS (DI), Z8
	VMULPS.BCST (AX)(R14*4), Z8, Z9
	VADDPS  Z9, Z0, Z0
	VMULPS.BCST (BX)(R14*4), Z8, Z10
	VADDPS  Z10, Z1, Z1
	VMULPS.BCST (DX)(R14*4), Z8, Z11
	VADDPS  Z11, Z2, Z2
	VMULPS.BCST (SI)(R14*4), Z8, Z12
	VADDPS  Z12, Z3, Z3
	CMPQ R12, $5
	JLT  anext
	VMULPS.BCST (R8)(R14*4), Z8, Z13
	VADDPS  Z13, Z4, Z4
	CMPQ R12, $6
	JLT  anext
	VMULPS.BCST (R9)(R14*4), Z8, Z14
	VADDPS  Z14, Z5, Z5
	CMPQ R12, $7
	JLT  anext
	VMULPS.BCST (R10)(R14*4), Z8, Z15
	VADDPS  Z15, Z6, Z6
	CMPQ R12, $8
	JLT  anext
	VMULPS.BCST (R11)(R14*4), Z8, Z16
	VADDPS  Z16, Z7, Z7
anext:
	ADDQ CX, DI
	INCQ R14
	CMPQ R14, m+32(FP)
	JLT  arow
	MOVQ (R13), DI
	VMOVUPS Z0, (DI)(R15*1)
	MOVQ 8(R13), DI
	VMOVUPS Z1, (DI)(R15*1)
	MOVQ 16(R13), DI
	VMOVUPS Z2, (DI)(R15*1)
	MOVQ 24(R13), DI
	VMOVUPS Z3, (DI)(R15*1)
	CMPQ R12, $5
	JLT  astored
	MOVQ 32(R13), DI
	VMOVUPS Z4, (DI)(R15*1)
	CMPQ R12, $6
	JLT  astored
	MOVQ 40(R13), DI
	VMOVUPS Z5, (DI)(R15*1)
	CMPQ R12, $7
	JLT  astored
	MOVQ 48(R13), DI
	VMOVUPS Z6, (DI)(R15*1)
	CMPQ R12, $8
	JLT  astored
	MOVQ 56(R13), DI
	VMOVUPS Z7, (DI)(R15*1)
astored:
	ADDQ $64, R15
	CMPQ R15, CX
	JLT  ablock
	VZEROUPPER
	RET

// func groupAxpyAVX2(outs, ws **float32, vals *float32, m, d, i0 int)
//
// groupAxpyAVX512 on eight channels to a register (d%8 == 0).
TEXT ·groupAxpyAVX2(SB), NOSPLIT, $0-48
	MOVQ outs+0(FP), DI
	MOVQ (DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 24(DI), R11
	MOVQ ws+8(FP), DI
	MOVQ (DI), AX
	MOVQ 8(DI), BX
	MOVQ 16(DI), DX
	MOVQ 24(DI), SI
	MOVQ i0+40(FP), R12
	ADDQ m+24(FP), R12 // one past the last weight index
	MOVQ d+32(FP), CX
	SHLQ $2, CX
	XORQ R15, R15
bblock:
	VMOVUPS (R8)(R15*1), Y0
	VMOVUPS (R9)(R15*1), Y1
	VMOVUPS (R10)(R15*1), Y2
	VMOVUPS (R11)(R15*1), Y3
	MOVQ vals+16(FP), DI
	ADDQ R15, DI
	MOVQ i0+40(FP), R14
brow:
	VMOVUPS (DI), Y4
	VBROADCASTSS (AX)(R14*4), Y5
	VMULPS  Y4, Y5, Y5
	VADDPS  Y5, Y0, Y0
	VBROADCASTSS (BX)(R14*4), Y6
	VMULPS  Y4, Y6, Y6
	VADDPS  Y6, Y1, Y1
	VBROADCASTSS (DX)(R14*4), Y7
	VMULPS  Y4, Y7, Y7
	VADDPS  Y7, Y2, Y2
	VBROADCASTSS (SI)(R14*4), Y8
	VMULPS  Y4, Y8, Y8
	VADDPS  Y8, Y3, Y3
	ADDQ CX, DI
	INCQ R14
	CMPQ R14, R12
	JLT  brow
	VMOVUPS Y0, (R8)(R15*1)
	VMOVUPS Y1, (R9)(R15*1)
	VMOVUPS Y2, (R10)(R15*1)
	VMOVUPS Y3, (R11)(R15*1)
	ADDQ $32, R15
	CMPQ R15, CX
	JLT  bblock
	VZEROUPPER
	RET


// The pair kernels of decode attention (pair.go) run two heads of one
// stream side by side, each head described by a pairHead in the layout
// below. Row j of a head is position j, or position idx[j] where idx is set;
// a position is row pos&mask of page pos>>shift, the page's rows at the
// address its slice header in the page table holds, stride bytes apart.
#define PH_DST 0
#define PH_X 8
#define PH_PAGES 16
#define PH_IDX 24
#define PH_N 32
#define PH_J 40
#define PH_PF 48
#define PH_LIM 56
#define PH_SIZE 64

// A row of pairExpSumAVX512 (pairExp).
#define PX_X 0
#define PX_MAX 8
#define PX_SUM 12
#define PX_SIZE 16

// ROWS8DX points R9..R15 at the seven rows after R8, DX bytes apart.
#define ROWS8DX \
	LEAQ (R8)(DX*1), R9; \
	LEAQ (R9)(DX*1), R10; \
	LEAQ (R10)(DX*1), R11; \
	LEAQ (R11)(DX*1), R12; \
	LEAQ (R12)(DX*1), R13; \
	LEAQ (R13)(DX*1), R14; \
	LEAQ (R14)(DX*1), R15

// func pairDotAVX2(h *[2]pairHead, shift, mask, stride int, scale float32) (bad bool)
//
// For each head, dst[j] = scale·<x, row j> for j in [j, n) (n%8 == 0; pages
// of at least eight rows, so eight consecutive positions from a multiple of
// eight share a page). The heads take turns a group of eight rows at a
// time, so the two groups' loads and sums are independent work in flight;
// each group is DOT8CHUNK over its rows, the rows in the lanes, as
// dotRowsAVX2. A listed group prefetches each row of the head's PH_PF pages,
// which the weighted sum reads next. A listed position not below the head's
// lim stops the kernel with bad set, before its row is read.
TEXT ·pairDotAVX2(SB), NOSPLIT, $0-41
	// PAIRPOS sets reg to the row of the head at DI listed at idx[j+k] (idx at
	// DX, j in BX, shift in CX), or leaves for pbad if the position is not
	// below PH_LIM, and prefetches the same row of the pages at PH_PF.
	// Clobbers AX and SI.
#define PAIRPOS(k, reg) \
	MOVQ       (k*8)(DX)(BX*8), reg; \
	CMPQ       reg, PH_LIM(DI); \
	JAE        pbad; \
	MOVQ       reg, AX; \
	SHRQ       CX, AX; \
	ANDQ       mask+16(FP), reg; \
	IMULQ      stride+24(FP), reg; \
	LEAQ       (AX)(AX*2), AX; \
	MOVQ       PH_PF(DI), SI; \
	MOVQ       (SI)(AX*8), SI; \
	PREFETCHT0 (SI)(reg*1); \
	MOVQ       PH_PAGES(DI), SI; \
	ADDQ       (SI)(AX*8), reg

	MOVQ         shift+8(FP), CX
	VBROADCASTSS scale+32(FP), Y10
ploop:
	MOVQ h+0(FP), DI
phead:
	MOVQ PH_J(DI), BX
	CMPQ BX, PH_N(DI)
	JGE  pnext
	MOVQ PH_IDX(DI), DX
	TESTQ DX, DX
	JNE  plisted
	MOVQ  BX, AX
	SHRQ  CX, AX
	LEAQ  (AX)(AX*2), AX
	MOVQ  PH_PAGES(DI), SI
	MOVQ  (SI)(AX*8), R8
	MOVQ  BX, AX
	ANDQ  mask+16(FP), AX
	IMULQ stride+24(FP), AX
	ADDQ  AX, R8
	MOVQ  stride+24(FP), DX
	ROWS8DX
	JMP   pdot
plisted:
	PAIRPOS(0, R8)
	PAIRPOS(1, R9)
	PAIRPOS(2, R10)
	PAIRPOS(3, R11)
	PAIRPOS(4, R12)
	PAIRPOS(5, R13)
	PAIRPOS(6, R14)
	PAIRPOS(7, R15)
pdot:
	MOVQ   PH_X(DI), SI
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
pchunk:
	DOT8CHUNK
	ADDQ $16, AX
	CMPQ AX, stride+24(FP)
	JLT  pchunk
	VMULPS  Y10, Y0, Y0
	MOVQ    PH_DST(DI), DX
	VMOVUPS Y0, (DX)(BX*4)
	ADDQ    $8, BX
	MOVQ    BX, PH_J(DI)
pnext:
	ADDQ $PH_SIZE, DI
	MOVQ h+0(FP), DX
	LEAQ (2*PH_SIZE)(DX), DX
	CMPQ DI, DX
	JLT  phead
	MOVQ h+0(FP), DI
	MOVQ PH_J(DI), BX
	CMPQ BX, PH_N(DI)
	JLT  ploop
	MOVQ (PH_SIZE+PH_J)(DI), BX
	CMPQ BX, (PH_SIZE+PH_N)(DI)
	JLT  ploop
	MOVB $0, bad+40(FP)
	VZEROUPPER
	RET
pbad:
	MOVB $1, bad+40(FP)
	VZEROUPPER
	RET

// func pairAxpyAVX2(h *[2]pairHead, shift, mask, stride, c0, c1 int) (bad bool)
//
// For each head and its rows j in [0, n): dst[c] += x[j]·(row j)[c] for the
// channels whose byte offsets c·4 lie in [c0, c1), eight to a register
// ((c1−c0)%32 == 0, c1 > c0). dst is set for both heads even where n is 0.
// A listed position not below the head's lim stops the kernel with bad set,
// before its row is read.
TEXT ·pairAxpyAVX2(SB), NOSPLIT, $0-49
	// AXKEY adds row j (j in BX) of one head — positions at idx (or j
	// itself where idx is nil), each below the head's lim at offset lim of
	// its state or the kernel leaves for abad; page table at pages; weights
	// at w — times its weight into acc, at channel byte offset R15 (shift in
	// CX, mask in R12, stride in R13): the multiply and add of axpyRowsAVX2,
	// in its operand order. Clobbers AX, DX and tmp.
#define AXKEY(idx, pages, w, acc, tmp, lim, seq) \
	MOVQ         BX, AX; \
	TESTQ        idx, idx; \
	JEQ          seq; \
	MOVQ         (idx)(BX*8), AX; \
	MOVQ         h+0(FP), DX; \
	CMPQ         AX, lim(DX); \
	JAE          abad; \
seq: \
	MOVQ         AX, DX; \
	SHRQ         CX, DX; \
	ANDQ         R12, AX; \
	IMULQ        R13, AX; \
	LEAQ         (DX)(DX*2), DX; \
	ADDQ         (pages)(DX*8), AX; \
	VBROADCASTSS (w)(BX*4), tmp; \
	VMULPS       (AX)(R15*1), tmp, tmp; \
	VADDPS       tmp, acc, acc

	// AXBODY is the pair weighted sum over the channel bytes [c0, c1) in blocks
	// of step bytes, one register (acc0, acc1) per head and block: the heads'
	// rows alternate over their common length, then each head's own rest
	// follows, so each output adds its rows in order.
#define AXBODY(acc0, acc1, t0, t1, step) \
	MOVQ h+0(FP), DX; \
	MOVQ PH_IDX(DX), R8; \
	MOVQ PH_PAGES(DX), R9; \
	MOVQ PH_X(DX), R10; \
	MOVQ (PH_SIZE+PH_IDX)(DX), R11; \
	MOVQ (PH_SIZE+PH_PAGES)(DX), SI; \
	MOVQ (PH_SIZE+PH_X)(DX), DI; \
	MOVQ PH_N(DX), R14; \
	CMPQ R14, (PH_SIZE+PH_N)(DX); \
	JLE  2(PC); \
	MOVQ (PH_SIZE+PH_N)(DX), R14; \
	MOVQ shift+8(FP), CX; \
	MOVQ mask+16(FP), R12; \
	MOVQ stride+24(FP), R13; \
	MOVQ c0+32(FP), R15; \
ablock: \
	MOVQ    h+0(FP), DX; \
	MOVQ    PH_DST(DX), AX; \
	VMOVUPS (AX)(R15*1), acc0; \
	MOVQ    (PH_SIZE+PH_DST)(DX), AX; \
	VMOVUPS (AX)(R15*1), acc1; \
	XORQ    BX, BX; \
aboth: \
	CMPQ BX, R14; \
	JGE  arest0; \
	AXKEY(R8, R9, R10, acc0, t0, PH_LIM, aseq0); \
	AXKEY(R11, SI, DI, acc1, t1, PH_SIZE+PH_LIM, aseq1); \
	INCQ BX; \
	JMP  aboth; \
arest0: \
	MOVQ h+0(FP), DX; \
	CMPQ BX, PH_N(DX); \
	JGE  arest1; \
	AXKEY(R8, R9, R10, acc0, t0, PH_LIM, aseq2); \
	INCQ BX; \
	JMP  arest0; \
arest1: \
	MOVQ R14, BX; \
arest1k: \
	MOVQ h+0(FP), DX; \
	CMPQ BX, (PH_SIZE+PH_N)(DX); \
	JGE  astore; \
	AXKEY(R11, SI, DI, acc1, t1, PH_SIZE+PH_LIM, aseq3); \
	INCQ BX; \
	JMP  arest1k; \
astore: \
	MOVQ    h+0(FP), DX; \
	MOVQ    PH_DST(DX), AX; \
	VMOVUPS acc0, (AX)(R15*1); \
	MOVQ    (PH_SIZE+PH_DST)(DX), AX; \
	VMOVUPS acc1, (AX)(R15*1); \
	ADDQ    $step, R15; \
	CMPQ    R15, c1+40(FP); \
	JLT     ablock; \
	MOVB    $0, bad+48(FP); \
	VZEROUPPER; \
	RET; \
abad: \
	MOVB    $1, bad+48(FP); \
	VZEROUPPER; \
	RET

	AXBODY(Y0, Y1, Y2, Y3, 32)

// func pairAxpyAVX512(h *[2]pairHead, shift, mask, stride, c0, c1 int) (bad bool)
//
// pairAxpyAVX2 with sixteen channels to a register ((c1−c0)%64 == 0).
TEXT ·pairAxpyAVX512(SB), NOSPLIT, $0-49
	AXBODY(Z0, Z1, Z2, Z3, 64)

// func pairExpSumAVX512(h *[2]pairExp, n int) (slow int)
//
// expSumAVX512 on two rows side by side over their first n elements (n%8 ==
// 0, n > 0): each block of eight takes both rows' table exps (EXPROW8), and
// the two sums, each carried serially in key order by scalar adds as in
// expSumAVX512, are two independent chains in flight, so two rows take about
// the time of one.
TEXT ·pairExpSumAVX512(SB), NOSPLIT, $0-24
	MOVQ h+0(FP), BX
	MOVQ PX_X(BX), SI
	MOVQ (PX_SIZE+PX_X)(BX), DI
	MOVQ n+8(FP), CX
	XORQ DX, DX
	VBROADCASTSS PX_MAX(BX), Y6
	VBROADCASTSS (PX_SIZE+PX_MAX)(BX), Y7
	VMOVSS PX_SUM(BX), X5
	VMOVSS (PX_SIZE+PX_SUM)(BX), X9
	EXPTK
xblock:
	EXPROW8(SI, Y6, xslow0, xback0)
	EXPROW8(DI, Y7, xslow1, xback1)
	VADDSS (SI), X5, X5
	VADDSS (DI), X9, X9
	VADDSS 4(SI), X5, X5
	VADDSS 4(DI), X9, X9
	VADDSS 8(SI), X5, X5
	VADDSS 8(DI), X9, X9
	VADDSS 12(SI), X5, X5
	VADDSS 12(DI), X9, X9
	VADDSS 16(SI), X5, X5
	VADDSS 16(DI), X9, X9
	VADDSS 20(SI), X5, X5
	VADDSS 20(DI), X9, X9
	VADDSS 24(SI), X5, X5
	VADDSS 24(DI), X9, X9
	VADDSS 28(SI), X5, X5
	VADDSS 28(DI), X9, X9
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JGT  xblock
	VMOVSS X5, PX_SUM(BX)
	VMOVSS X9, (PX_SIZE+PX_SUM)(BX)
	MOVQ   DX, slow+16(FP)
	VZEROUPPER
	RET
	EXPSLOW8(xslow0, xback0)
	EXPSLOW8(xslow1, xback1)
