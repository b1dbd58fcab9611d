// Vector kernels of the packed sphere scan. See kernels.go for the
// layout, the group kernel contract and the bit-identity argument:
// per lane the VSUBPD/VMULPD/VADDPD sequence below performs exactly
// the scalar d := row[j] - q[j]; s += d*d of sqDist, in ascending
// dimension order, on four (AVX2) or eight (AVX-512F) rows at once.

#include "textflag.h"

// func cpuid1ecx() uint32
TEXT ·cpuid1ecx(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func cpuid7ebx() uint32
TEXT ·cpuid7ebx(SB), NOSPLIT, $0-4
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ret+0(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// func scanGroups4(packed *float64, groupBytes uintptr, g0, n int,
//                  q *float64, nchunks int, bound float64,
//                  part *float64)
//
// For each of the n consecutive groups starting at g0: accumulate the
// four lanes' squared distances to q over nchunks chunks of eight
// dimensions, abandoning the group at a chunk boundary once all four
// partial sums exceed bound. The (partial or full) sums are stored to
// part, four float64 per group.
TEXT ·scanGroups4(SB), NOSPLIT, $0-64
	MOVQ packed+0(FP), DI
	MOVQ groupBytes+8(FP), SI
	MOVQ g0+16(FP), AX
	IMULQ SI, AX
	ADDQ AX, DI                // DI = base of first group
	MOVQ n+24(FP), R10
	MOVQ q+32(FP), R11
	MOVQ nchunks+40(FP), R14
	VBROADCASTSD bound+48(FP), Y15
	MOVQ part+56(FP), R12

	XORQ R13, R13              // group counter

group4:
	CMPQ R13, R10
	JGE  done4
	MOVQ DI, BX                // row cursor within group
	MOVQ R11, DX               // query cursor
	MOVQ R14, CX               // chunks remaining
	VXORPD Y0, Y0, Y0          // four partial sums

chunk4:
	VBROADCASTSD 0(DX), Y1
	VMOVUPD 0(BX), Y2
	VSUBPD  Y1, Y2, Y2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0

	VBROADCASTSD 8(DX), Y3
	VMOVUPD 32(BX), Y4
	VSUBPD  Y3, Y4, Y4
	VMULPD  Y4, Y4, Y4
	VADDPD  Y4, Y0, Y0

	VBROADCASTSD 16(DX), Y5
	VMOVUPD 64(BX), Y6
	VSUBPD  Y5, Y6, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y0, Y0

	VBROADCASTSD 24(DX), Y7
	VMOVUPD 96(BX), Y8
	VSUBPD  Y7, Y8, Y8
	VMULPD  Y8, Y8, Y8
	VADDPD  Y8, Y0, Y0

	VBROADCASTSD 32(DX), Y9
	VMOVUPD 128(BX), Y10
	VSUBPD  Y9, Y10, Y10
	VMULPD  Y10, Y10, Y10
	VADDPD  Y10, Y0, Y0

	VBROADCASTSD 40(DX), Y11
	VMOVUPD 160(BX), Y12
	VSUBPD  Y11, Y12, Y12
	VMULPD  Y12, Y12, Y12
	VADDPD  Y12, Y0, Y0

	VBROADCASTSD 48(DX), Y13
	VMOVUPD 192(BX), Y14
	VSUBPD  Y13, Y14, Y14
	VMULPD  Y14, Y14, Y14
	VADDPD  Y14, Y0, Y0

	VBROADCASTSD 56(DX), Y1
	VMOVUPD 224(BX), Y2
	VSUBPD  Y1, Y2, Y2
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0

	ADDQ $64, DX               // eight query coordinates
	ADDQ $256, BX              // eight dims of four lanes
	DECQ CX
	JZ   endgroup4

	// Partial-distance early exit: abandon the group once every
	// lane's sum exceeds the bound (predicate 30 = GT_OQ).
	VCMPPD $30, Y15, Y0, Y3
	VMOVMSKPD Y3, AX
	CMPL AX, $15
	JNE  chunk4

endgroup4:
	VMOVUPD Y0, (R12)
	ADDQ $32, R12
	ADDQ SI, DI
	INCQ R13
	JMP  group4

done4:
	VZEROUPPER
	RET

// func scanGroups8(packed *float64, groupBytes uintptr, g0, n int,
//                  q *float64, nchunks int, bound float64,
//                  part *float64)
//
// AVX-512F variant of scanGroups4: eight rows per group, one ZMM
// vector per dimension, mask-register compare for the early exit.
// Only AVX-512F instructions are used (VXORPD on the YMM form zeroes
// the full ZMM; KMOVW is the F-level mask move).
TEXT ·scanGroups8(SB), NOSPLIT, $0-64
	MOVQ packed+0(FP), DI
	MOVQ groupBytes+8(FP), SI
	MOVQ g0+16(FP), AX
	IMULQ SI, AX
	ADDQ AX, DI                // DI = base of first group
	MOVQ n+24(FP), R10
	MOVQ q+32(FP), R11
	MOVQ nchunks+40(FP), R14
	VBROADCASTSD bound+48(FP), Z15
	MOVQ part+56(FP), R12

	XORQ R13, R13              // group counter

group8:
	CMPQ R13, R10
	JGE  done8
	MOVQ DI, BX                // row cursor within group
	MOVQ R11, DX               // query cursor
	MOVQ R14, CX               // chunks remaining
	VXORPD Y0, Y0, Y0          // eight partial sums (zeroes Z0)

chunk8:
	VBROADCASTSD 0(DX), Z1
	VMOVUPD 0(BX), Z2
	VSUBPD  Z1, Z2, Z2
	VMULPD  Z2, Z2, Z2
	VADDPD  Z2, Z0, Z0

	VBROADCASTSD 8(DX), Z3
	VMOVUPD 64(BX), Z4
	VSUBPD  Z3, Z4, Z4
	VMULPD  Z4, Z4, Z4
	VADDPD  Z4, Z0, Z0

	VBROADCASTSD 16(DX), Z5
	VMOVUPD 128(BX), Z6
	VSUBPD  Z5, Z6, Z6
	VMULPD  Z6, Z6, Z6
	VADDPD  Z6, Z0, Z0

	VBROADCASTSD 24(DX), Z7
	VMOVUPD 192(BX), Z8
	VSUBPD  Z7, Z8, Z8
	VMULPD  Z8, Z8, Z8
	VADDPD  Z8, Z0, Z0

	VBROADCASTSD 32(DX), Z9
	VMOVUPD 256(BX), Z10
	VSUBPD  Z9, Z10, Z10
	VMULPD  Z10, Z10, Z10
	VADDPD  Z10, Z0, Z0

	VBROADCASTSD 40(DX), Z11
	VMOVUPD 320(BX), Z12
	VSUBPD  Z11, Z12, Z12
	VMULPD  Z12, Z12, Z12
	VADDPD  Z12, Z0, Z0

	VBROADCASTSD 48(DX), Z13
	VMOVUPD 384(BX), Z14
	VSUBPD  Z13, Z14, Z14
	VMULPD  Z14, Z14, Z14
	VADDPD  Z14, Z0, Z0

	VBROADCASTSD 56(DX), Z1
	VMOVUPD 448(BX), Z2
	VSUBPD  Z1, Z2, Z2
	VMULPD  Z2, Z2, Z2
	VADDPD  Z2, Z0, Z0

	ADDQ $64, DX               // eight query coordinates
	ADDQ $512, BX              // eight dims of eight lanes
	DECQ CX
	JZ   endgroup8

	// Early exit once every lane's sum exceeds the bound
	// (predicate 30 = GT_OQ; the compare writes eight mask bits).
	VCMPPD $30, Z15, Z0, K1
	KMOVW K1, AX
	CMPL AX, $255
	JNE  chunk8

endgroup8:
	VMOVUPD Z0, (R12)
	ADDQ $64, R12
	ADDQ SI, DI
	INCQ R13
	JMP  group8

done8:
	VZEROUPPER
	RET
