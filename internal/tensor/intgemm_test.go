package tensor

import (
	"testing"

	"quq/internal/rng"
)

// randInt64s fills an n-element slice with signed integers, planting
// zeros and occasional full-width values so both the typical QUB range
// (small pre-shifted magnitudes) and the wrap-around regime (int64
// overflow, where bit-exactness mod 2^64 is what the kernels promise)
// are exercised.
func randInt64s(src *rng.Source, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		switch {
		case src.Float64() < 0.1:
			s[i] = 0
		case src.Float64() < 0.15:
			s[i] = int64(src.Uint64()) // full-width: exercises wrap
		default:
			s[i] = int64(src.Intn(1<<22)) - 1<<21
		}
	}
	return s
}

// randNarrowInt64s fills an n-element slice with int32-range values —
// the regime pickIntMicro routes to the narrow micro-kernel — planting
// zeros and the extreme int32 boundary values so the narrow kernel's
// sign handling is exercised at its edges.
func randNarrowInt64s(src *rng.Source, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		switch {
		case src.Float64() < 0.1:
			s[i] = 0
		case src.Float64() < 0.15:
			if src.Float64() < 0.5 {
				s[i] = -1 << 31 // int32 min: narrow, maximal magnitude
			} else {
				s[i] = 1<<31 - 1 // int32 max
			}
		default:
			s[i] = int64(src.Intn(1<<22)) - 1<<21
		}
	}
	return s
}

func assertInt64Equal(t *testing.T, name string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d", name, i, got[i], want[i])
		}
	}
}

func TestIntMatMulIntoMatchesRef(t *testing.T) {
	src := rng.New(21)
	for _, fill := range []func(*rng.Source, int) []int64{randInt64s, randNarrowInt64s} {
		for _, s := range gemmShapes {
			a := fill(src, s.m*s.k)
			b := fill(src, s.k*s.n)
			got := make([]int64, s.m*s.n)
			want := make([]int64, s.m*s.n)
			IntMatMulInto(got, a, b, s.m, s.k, s.n)
			IntMatMulRef(want, a, b, s.m, s.k, s.n)
			assertInt64Equal(t, "IntMatMulInto", got, want)
		}
	}
}

// TestIntMicroDispatchBoundary pins the narrow/wide dispatch edge: a
// single value of magnitude 2^31 (one past int32) anywhere in either
// operand must force the portable kernel, while all-int32 operands (down to
// int32 min itself) stay narrow — and both must match the reference
// exactly. Also verifies the scan inspects only the used prefix of
// oversized operand slices.
func TestIntMicroDispatchBoundary(t *testing.T) {
	const m, k, n = 8, 12, 8
	src := rng.New(25)
	a := randNarrowInt64s(src, m*k)
	b := randNarrowInt64s(src, k*n)
	check := func(label string) {
		t.Helper()
		got := make([]int64, m*n)
		want := make([]int64, m*n)
		IntMatMulInto(got, a, b, m, k, n)
		IntMatMulRef(want, a, b, m, k, n)
		assertInt64Equal(t, label, got, want)
	}
	if !int64sNarrow(a) || !int64sNarrow(b) {
		t.Fatal("fixture operands not narrow")
	}
	check("all narrow")
	a[m*k/2] = 1 << 31 // just wide
	if int64sNarrow(a) {
		t.Fatal("2^31 classified as narrow")
	}
	check("one wide lhs")
	a[m*k/2] = -1 << 31 // int32 min: narrow again
	b[k*n/2] = -1<<31 - 1
	if int64sNarrow(b) {
		t.Fatal("-2^31-1 classified as narrow")
	}
	check("one wide rhs")

	// A wide value beyond the used prefix must not affect dispatch.
	aLong := append(append([]int64{}, a...), int64(1)<<40)
	if !int64sNarrow(aLong[:m*k]) {
		t.Fatal("prefix scan leaked past m*k")
	}
	got := make([]int64, m*n)
	want := make([]int64, m*n)
	IntMatMulInto(got, aLong, b, m, k, n)
	IntMatMulRef(want, aLong, b, m, k, n)
	assertInt64Equal(t, "oversized operand", got, want)
}

// TestIntReferenceKernelSeam verifies the shared bench seam also routes
// the integer entry points through the naive loops, bit-identically.
func TestIntReferenceKernelSeam(t *testing.T) {
	src := rng.New(23)
	a := randInt64s(src, 9*17)
	b := randInt64s(src, 17*33)
	tiled := make([]int64, 9*33)
	IntMatMulInto(tiled, a, b, 9, 17, 33)
	SetReferenceKernels(true)
	defer SetReferenceKernels(false)
	ref := make([]int64, 9*33)
	IntMatMulInto(ref, a, b, 9, 17, 33)
	assertInt64Equal(t, "int reference seam", ref, tiled)
}

// TestIntParallelMatchesSerial raises the intra-op budget and checks
// that an integer GEMM above the size cutover — which then actually
// splits across workers — produces identical results to the serial
// kernel. (For int64 this is guaranteed by associativity mod 2^64; the
// test guards the row-partitioning bookkeeping.)
func TestIntParallelMatchesSerial(t *testing.T) {
	SetIntraOpWorkers(4)
	t.Cleanup(func() { SetIntraOpWorkers(1) })
	src := rng.New(24)
	// 64·128·80 = 655360 MACs, above parallelMinMACs with 64 rows to split.
	a := randInt64s(src, 64*128)
	b := randInt64s(src, 128*80)
	want := make([]int64, 64*80)
	IntMatMulRef(want, a, b, 64, 128, 80)
	for round := 0; round < 4; round++ {
		got := make([]int64, 64*80)
		IntMatMulInto(got, a, b, 64, 128, 80)
		assertInt64Equal(t, "parallel IntMatMulInto", got, want)
	}
}

func TestIntMatMulIntoRejectsBadDst(t *testing.T) {
	a := make([]int64, 3*4)
	b := make([]int64, 4*5)
	for name, fn := range map[string]func(){
		"short dst": func() { IntMatMulInto(make([]int64, 3*4), a, b, 3, 4, 5) },
		"short lhs": func() { IntMatMulInto(make([]int64, 3*5), a[:11], b, 3, 4, 5) },
		"short rhs": func() { IntMatMulInto(make([]int64, 3*5), a, b[:19], 3, 4, 5) },
		"neg dim":   func() { IntMatMulInto(make([]int64, 3*5), a, b, -3, 4, 5) },
		"aliasing":  func() { IntMatMulInto(b, a, b, 3, 4, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestArenaInt64Reuse mirrors TestArenaReuse for the int64 scratch pool.
func TestArenaInt64Reuse(t *testing.T) {
	ar := GetArena()
	defer ar.Release()
	x := ar.Int64(24)
	x[0] = 7
	base := &x[0]
	ar.PutInt64(x)

	// Same length comes back as the same storage, contents unspecified.
	y := ar.Int64(24)
	if &y[0] != base {
		t.Fatal("Int64 did not recycle the PutInt64 slice")
	}
	if y[0] != 7 {
		t.Fatal("Int64 should not clear recycled storage")
	}
	ar.PutInt64(y)

	// A different length is a miss: fresh storage.
	w := ar.Int64(25)
	if &w[0] == base {
		t.Fatal("Int64 recycled across different lengths")
	}
}

// FuzzIntGEMMEquivalence fuzzes randomized shapes and full-range int64
// contents through IntMatMulInto, asserting exact equality
// against the naive reference oracle — serial and with the parallel
// budget raised. Wrapping overflow is in scope: int64 arithmetic mod
// 2^64 must agree between kernels for any inputs.
func FuzzIntGEMMEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(5))
	f.Add(int64(2), uint8(0), uint8(1), uint8(9))
	f.Add(int64(3), uint8(1), uint8(0), uint8(1))
	f.Add(int64(4), uint8(17), uint8(16), uint8(17))
	f.Add(int64(5), uint8(65), uint8(33), uint8(70))
	f.Fuzz(func(t *testing.T, seed int64, m8, k8, n8 uint8) {
		m, k, n := int(m8%80), int(k8%80), int(n8%80)
		src := rng.New(uint64(seed))
		// Odd seeds pin the operands to int32 range so the narrow
		// micro-kernel is fuzzed as systematically as the portable one.
		fill := randInt64s
		if seed%2 != 0 {
			fill = randNarrowInt64s
		}
		a := fill(src, m*k)
		b := fill(src, k*n)
		wantMM := make([]int64, m*n)
		IntMatMulRef(wantMM, a, b, m, k, n)

		check := func(label string) {
			t.Helper()
			got := make([]int64, m*n)
			IntMatMulInto(got, a, b, m, k, n)
			assertInt64Equal(t, label+" IntMatMulInto", got, wantMM)
		}
		check("serial")
		SetIntraOpWorkers(4)
		defer SetIntraOpWorkers(1)
		check("parallel")
	})
}
