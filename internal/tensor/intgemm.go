package tensor

import (
	"sync"

	"quq/internal/check"
)

// This file is the integer half of the kernel layer: cache-blocked,
// register-tiled int64 GEMM over flat row-major slices, mirroring the
// float kernels in gemm.go. The determinism story is simpler than the
// float one: int64 addition wraps modulo 2^64 and is associative and
// commutative, so *any* summation order produces the same bits. Blocking,
// tiling, SIMD lane grouping with independent accumulator chains, and
// row-partitioned parallelism are therefore all bit-exact against the
// naive reference by construction — the equivalence and fuzz tests in
// intgemm_test.go assert it anyway, over randomized shapes and the
// full worker matrix.
//
// The entry points take flat []int64 slices rather than *Tensor because
// their caller is the integer datapath (internal/accel), which holds
// pre-shifted QUB integers, not float tensors. They share the float
// layer's intra-op worker pool (SetIntraOpWorkers / GrantWorkers), size
// cutover, and reference-kernel seam (SetReferenceKernels).

// intMatMulDims validates operand/destination lengths for an m×k @ k×n
// integer GEMM.
func intMatMulDims(dst, a, b []int64, m, k, n int, op string) {
	if m < 0 || k < 0 || n < 0 {
		panic(check.Invariantf("tensor: %s negative dimensions %dx%dx%d", op, m, k, n))
	}
	if len(a) < m*k {
		panic(check.Invariantf("tensor: %s lhs length %d, want >= %d", op, len(a), m*k))
	}
	if len(b) < k*n {
		panic(check.Invariantf("tensor: %s rhs length %d, want >= %d", op, len(b), k*n))
	}
	if len(dst) < m*n {
		panic(check.Invariantf("tensor: %s destination length %d, want >= %d", op, len(dst), m*n))
	}
	if len(dst) == 0 {
		return
	}
	if (len(a) > 0 && &dst[0] == &a[0]) || (len(b) > 0 && &dst[0] == &b[0]) {
		panic(check.Invariantf("tensor: %s destination aliases an operand", op))
	}
}

// IntMatMulInto computes dst = a @ b for flat row-major int64 matrices
// (m×k) @ (k×n) -> (m×n), writing into caller-provided storage (dst need
// not be zeroed; every element is stored). dst must not share storage
// with a or b. Accumulation is int64 wrapping modulo 2^64, so results
// are bit-exact regardless of kernel, tiling, or worker count; overflow
// bounds are the caller's contract (accel checks them at prepare time).
//
//quq:hotpath steady-state integer GEMM kernel; destinations come from the caller (arena or resident buffer), never fresh allocations
func IntMatMulInto(dst, a, b []int64, m, k, n int) {
	intMatMulDims(dst, a, b, m, k, n, "IntMatMulInto")
	if refKernels.Load() {
		intMatMulRefRange(dst, a, b, k, n, 0, m)
		return
	}
	micro := pickIntMicro(a[:m*k], b[:k*n])
	if extra := planExtra(m, k, n); extra > 0 {
		runRows(extra, m, func(i0, i1 int) { intMatMulRange(dst, a, b, k, n, i0, i1, micro) })
	} else {
		intMatMulRange(dst, a, b, k, n, 0, m, micro)
	}
}

// pickIntMicro selects the micro-kernel for one GEMM call: the narrow
// (int32-operand) SIMD kernel when it exists and every element of both
// operands fits in int32, the portable kernel otherwise. The O(mk + kn)
// scan is negligible against the O(mkn) multiply and keeps the
// bit-exactness contract unconditional — wide values simply take the
// portable kernel. Every production operand (integer-path codes,
// pre-shifted QUB values) is narrow.
func pickIntMicro(a, b []int64) func(c *[16]int64, a0, a1, a2, a3, bp []int64, k int) {
	if intMicro4x4Narrow != nil && int64sNarrow(a) && int64sNarrow(b) {
		return intMicro4x4Narrow
	}
	return intMicro4x4Go
}

// int64sNarrow reports whether every value fits in int32.
func int64sNarrow(s []int64) bool {
	for _, v := range s {
		if v != int64(int32(v)) {
			return false
		}
	}
	return true
}

// intPackPool recycles the per-call int64 B-panel pack buffers so
// steady-state integer kernels allocate nothing; each concurrent kernel
// invocation (including each intra-op worker) takes its own buffer.
var intPackPool = sync.Pool{New: func() any { return new([]int64) }}

// getIntPackAndAcc returns a pooled n-element int64 pack panel plus a
// 16-element accumulator block for the micro-kernel, carved from one
// pooled buffer so the steady state allocates nothing. The accumulator
// must live in pooled memory (not the caller's frame): the micro-kernel
// is called through a function value, so a stack-declared block would be
// marked escaping and heap-allocated on every kernel invocation.
func getIntPackAndAcc(n int) (*[]int64, []int64, *[16]int64) {
	p := intPackPool.Get().(*[]int64)
	if cap(*p) < n+16 {
		*p = make([]int64, n+16)
	}
	buf := (*p)[:n+16]
	return p, buf[:n:n], (*[16]int64)(buf[n : n+16])
}

// intMatMulRange is the blocked, register-tiled a @ b integer kernel over
// dst rows [i0, i1). Each group of nrTile columns is packed into a
// contiguous k×4 panel so the inner loop's b loads are sequential rather
// than strided by the row width; the panel is then paired with mrTile
// rows of a in a 4×4 micro-kernel holding 16 independent int64
// accumulator chains in registers.
func intMatMulRange(dst, a, b []int64, k, n, i0, i1 int, micro func(c *[16]int64, a0, a1, a2, a3, bp []int64, k int)) {
	if n == 0 {
		return
	}
	pp, packed, acc := getIntPackAndAcc(nrTile * k)
	j := 0
	for ; j+nrTile <= n; j += nrTile {
		boff := j
		for kk := 0; kk < k; kk++ {
			brow := b[boff : boff+nrTile]
			prow := packed[kk*nrTile : kk*nrTile+nrTile]
			prow[0], prow[1], prow[2], prow[3] = brow[0], brow[1], brow[2], brow[3]
			boff += n
		}
		i := i0
		for ; i+mrTile <= i1; i += mrTile {
			a0 := a[(i+0)*k : (i+0)*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k]
			a2 := a[(i+2)*k : (i+2)*k+k]
			a3 := a[(i+3)*k : (i+3)*k+k]
			micro(acc, a0, a1, a2, a3, packed, k)
			d0 := dst[(i+0)*n+j : (i+0)*n+j+nrTile]
			d1 := dst[(i+1)*n+j : (i+1)*n+j+nrTile]
			d2 := dst[(i+2)*n+j : (i+2)*n+j+nrTile]
			d3 := dst[(i+3)*n+j : (i+3)*n+j+nrTile]
			d0[0], d0[1], d0[2], d0[3] = acc[0], acc[1], acc[2], acc[3]
			d1[0], d1[1], d1[2], d1[3] = acc[4], acc[5], acc[6], acc[7]
			d2[0], d2[1], d2[2], d2[3] = acc[8], acc[9], acc[10], acc[11]
			d3[0], d3[1], d3[2], d3[3] = acc[12], acc[13], acc[14], acc[15]
		}
		for ; i < i1; i++ {
			arow := a[i*k : i*k+k]
			var c0, c1, c2, c3 int64
			for kk := 0; kk < k; kk++ {
				bq := packed[kk*nrTile : kk*nrTile+nrTile]
				av := arow[kk]
				c0 += av * bq[0]
				c1 += av * bq[1]
				c2 += av * bq[2]
				c3 += av * bq[3]
			}
			drow := dst[i*n+j : i*n+j+nrTile]
			drow[0], drow[1], drow[2], drow[3] = c0, c1, c2, c3
		}
	}
	for ; j < n; j++ {
		for i := i0; i < i1; i++ {
			arow := a[i*k : i*k+k]
			var s int64
			boff := j
			for kk := 0; kk < k; kk++ {
				s += arow[kk] * b[boff]
				boff += n
			}
			dst[i*n+j] = s
		}
	}
	intPackPool.Put(pp)
}

// intMatMulRefRange is the naive scalar a @ b integer loop, retained as
// the oracle the tiled/SIMD kernels are tested against and the baseline
// the integer kernel benchmarks measure.
func intMatMulRefRange(dst, a, b []int64, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : i*k+k]
		orow := dst[i*n : i*n+n]
		for j := range orow {
			var s int64
			boff := j
			for kk := 0; kk < k; kk++ {
				s += arow[kk] * b[boff]
				boff += n
			}
			orow[j] = s
		}
	}
}

// IntMatMulRef computes dst = a @ b with the naive reference loop. It is
// the oracle the blocked integer kernels are tested against; production
// code uses IntMatMulInto.
func IntMatMulRef(dst, a, b []int64, m, k, n int) {
	intMatMulDims(dst, a, b, m, k, n, "IntMatMulRef")
	intMatMulRefRange(dst, a, b, k, n, 0, m)
}
