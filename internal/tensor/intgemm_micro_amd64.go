//go:build amd64

package tensor

// AVX2 path of the narrow 4×4 integer micro-kernel. The assembly kernel
// keeps one ymm accumulator per A row (four int64 column lanes — the
// independent accumulator chains) and forms each product with one signed
// 32×32→64 VPMULDQ, exact when both operands fit in int32. The
// equivalence and fuzz tests in intgemm_test.go exercise it against the
// naive reference oracle.

// intGemmKernel4x4Narrow computes c[r*4+j] = Σ_kk a_r[kk]·bp[kk*4+j]
// for r,j in 0..3, for operands that fit in int32. Callers must
// guarantee narrowness — pickIntMicro scans both operands before
// selecting it. k must be ≥ 1 and the pointers must address k (rows) and
// 4k (panel) readable int64s. Implemented in intgemm_micro_amd64.s.
//
//go:noescape
func intGemmKernel4x4Narrow(c *[16]int64, a0, a1, a2, a3, bp *int64, k int)

// cpuHasAVX2 reports CPU and OS support for AVX2 (CPUID leaf 1 OSXSAVE +
// AVX with XCR0 enabling xmm+ymm state, plus leaf 7 AVX2). Implemented
// in intgemm_micro_amd64.s.
func cpuHasAVX2() bool

func intMicro4x4NarrowAVX2(c *[16]int64, a0, a1, a2, a3, bp []int64, k int) {
	if k == 0 {
		*c = [16]int64{}
		return
	}
	intGemmKernel4x4Narrow(c, &a0[0], &a1[0], &a2[0], &a3[0], &bp[0], k)
}

func init() {
	if cpuHasAVX2() {
		intMicro4x4Narrow = intMicro4x4NarrowAVX2
	}
}
