package tensor

// The 4×4 integer GEMM micro-kernel behind intMatMulRange: 16 int64 dot
// products of four A rows against a shared k×4 packed B panel, each
// output element owning an independent accumulator chain.

// intMicro4x4Narrow, when non-nil, is a faster micro-kernel that is only
// correct when every operand value fits in int32 (on amd64/AVX2, one
// signed VPMULDQ per product). pickIntMicro selects it after scanning
// both operands; the portable build leaves it nil and always uses
// intMicro4x4Go. Because int64 addition and multiplication wrap modulo
// 2^64, every grouping of the same terms yields identical bits, so the
// vector kernel is bit-exact against the portable loop by construction.
// Narrowness covers the whole integer datapath in practice: pre-shifted
// QUB values are bounded by MaxMag << Shift ≪ 2^31.
var intMicro4x4Narrow func(c *[16]int64, a0, a1, a2, a3, bp []int64, k int)

// intMicro4x4Go is the portable integer micro-kernel:
// c[r*4+j] = Σ_kk a_r[kk]·bp[kk*4+j] (mod 2^64).
func intMicro4x4Go(c *[16]int64, a0, a1, a2, a3, bp []int64, k int) {
	var c00, c01, c02, c03 int64
	var c10, c11, c12, c13 int64
	var c20, c21, c22, c23 int64
	var c30, c31, c32, c33 int64
	for kk := 0; kk < k; kk++ {
		bq := bp[kk*4 : kk*4+4]
		b0, b1, b2, b3 := bq[0], bq[1], bq[2], bq[3]
		av := a0[kk]
		c00 += av * b0
		c01 += av * b1
		c02 += av * b2
		c03 += av * b3
		av = a1[kk]
		c10 += av * b0
		c11 += av * b1
		c12 += av * b2
		c13 += av * b3
		av = a2[kk]
		c20 += av * b0
		c21 += av * b1
		c22 += av * b2
		c23 += av * b3
		av = a3[kk]
		c30 += av * b0
		c31 += av * b1
		c32 += av * b2
		c33 += av * b3
	}
	c[0], c[1], c[2], c[3] = c00, c01, c02, c03
	c[4], c[5], c[6], c[7] = c10, c11, c12, c13
	c[8], c[9], c[10], c[11] = c20, c21, c22, c23
	c[12], c[13], c[14], c[15] = c30, c31, c32, c33
}
