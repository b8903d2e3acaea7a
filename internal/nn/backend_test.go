package nn

import (
	"math"
	"strings"
	"testing"

	"macroplace/internal/rng"
)

// forcePoolWorkers swaps the shared GEMM pool for one with n workers
// for the duration of the test, so the parallel sharding paths run
// even on a single-core host (where sharedPool() would have n=1 and
// every backend would take its serial fallback). The temporary pool's
// goroutines are shut down by closing its task channel.
func forcePoolWorkers(t *testing.T, n int) {
	t.Helper()
	sharedPool() // materialise the real pool before swapping it out
	old := sharedOnce
	sharedOnce = newWorkerPool(n)
	t.Cleanup(func() {
		close(sharedOnce.tasks)
		sharedOnce = old
	})
}

func TestBackendRegistry(t *testing.T) {
	for _, name := range Backends() {
		be, err := NewBackend(name)
		if err != nil {
			t.Fatalf("NewBackend(%q): %v", name, err)
		}
		if be.Name() != name {
			t.Fatalf("NewBackend(%q).Name() = %q", name, be.Name())
		}
	}
	if _, err := NewBackend("simd512"); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("NewBackend(unknown) error = %v", err)
	}
}

// backendShapes exercises every dispatch regime: tiny products below
// parallelMinWork (serial fallbacks), ragged tails against the 4-wide
// unroll and the tile sizes, single rows/columns, and products large
// enough to shard across the forced 4-worker pool with an uneven last
// panel.
var backendShapes = [][3]int{
	{1, 1, 1}, {1, 7, 3}, {3, 5, 7}, {13, 11, 17}, {2, 129, 3},
	{5, 257, 31}, {4, 130, 258},
	// Above parallelMinWork (1<<16): panels engage.
	{8, 96, 128}, {7, 131, 113}, {9, 257, 67}, {32, 64, 64},
}

// int8Tolerance bounds the quantized backend's error for row i by the
// error model documented in quant.go:
//
//	|Δc[i][j]| ≤ k · (saᵢ/2·max|B| + sb/2·max|Aᵢ| + saᵢ·sb/4)
func int8Tolerance(a, b []float32, i, k int) float64 {
	maxAbs := func(s []float32) float64 {
		var m float64
		for _, v := range s {
			if a := math.Abs(float64(v)); a > m {
				m = a
			}
		}
		return m
	}
	maxA := maxAbs(a[i*k : (i+1)*k])
	maxB := maxAbs(b)
	sa := maxA / 127
	sb := maxB / 127
	return float64(k) * (sa/2*maxB + sb/2*maxA + sa*sb/4)
}

// TestBackendConformance pins every registered backend against the
// naive reference on random data: the float backends ("blocked",
// "parallel") must be bit-identical (same accumulation order, one
// float32 rounding per add), the quantized backend must stay inside
// its documented error bound. Both relu regimes run for every shape.
func TestBackendConformance(t *testing.T) {
	forcePoolWorkers(t, 4)
	oracle := naiveBackend{}
	for _, name := range Backends() {
		t.Run(name, func(t *testing.T) {
			be, err := NewBackend(name)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(31)
			for _, sh := range backendShapes {
				for _, relu := range []bool{false, true} {
					m, k, n := sh[0], sh[1], sh[2]
					a := make([]float32, m*k)
					b := make([]float32, k*n)
					bias := make([]float32, m)
					fillNorm(r, a)
					fillNorm(r, b)
					fillNorm(r, bias)
					got := make([]float32, m*n)
					want := make([]float32, m*n)
					be.MatMulBias(got, a, b, bias, m, k, n, relu)
					oracle.MatMulBias(want, a, b, bias, m, k, n, relu)
					if name == "int8" {
						for i := 0; i < m; i++ {
							tol := int8Tolerance(a, b, i, k)
							for j := 0; j < n; j++ {
								d := math.Abs(float64(got[i*n+j]) - float64(want[i*n+j]))
								if d > tol || math.IsNaN(d) {
									t.Fatalf("shape %v relu=%v: |Δc[%d][%d]| = %g exceeds bound %g",
										sh, relu, i, j, d, tol)
								}
							}
						}
						continue
					}
					requireExact(t, name, sh, got, want)
				}
			}
		})
	}
}

// TestParallelBackendPanicPropagates: a short output buffer must
// surface as a panic on the calling goroutine (where the mcts batcher
// recovers it into an error), and the shared pool must keep working
// afterwards — a poisoned panel cannot kill persistent workers.
func TestParallelBackendPanicPropagates(t *testing.T) {
	forcePoolWorkers(t, 4)
	be := &parallelBackend{}
	m, k, n := 8, 96, 128
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	bias := make([]float32, m)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("short buffer did not panic")
			}
		}()
		be.MatMulBias(make([]float32, 1), a, b, bias, m, k, n, false)
	}()

	r := rng.New(7)
	fillNorm(r, a)
	fillNorm(r, b)
	fillNorm(r, bias)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	be.MatMulBias(got, a, b, bias, m, k, n, true)
	naiveBackend{}.MatMulBias(want, a, b, bias, m, k, n, true)
	requireExact(t, "parallel after panic", [3]int{m, k, n}, got, want)
}

// TestWorkspaceBackendRouting: a nil workspace and a real one both run
// the plain MatMulBias kernel.
func TestWorkspaceBackendRouting(t *testing.T) {
	r := rng.New(11)
	m, k, n := 5, 13, 9
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	bias := make([]float32, m)
	fillNorm(r, a)
	fillNorm(r, b)
	fillNorm(r, bias)
	want := make([]float32, m*n)
	MatMulBias(want, a, b, bias, m, k, n, true)

	var nilWS *Workspace
	got := make([]float32, m*n)
	nilWS.MatMulBias(got, a, b, bias, m, k, n, true)
	requireExact(t, "nil workspace", [3]int{m, k, n}, got, want)

	ws := &Workspace{}
	clearF32(got)
	ws.MatMulBias(got, a, b, bias, m, k, n, true)
	requireExact(t, "workspace", [3]int{m, k, n}, got, want)
}

func clearF32(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

func TestQuantizeSymmetricRoundTrip(t *testing.T) {
	r := rng.New(5)
	src := make([]float32, 513)
	fillNorm(r, src)
	q := make([]int8, len(src))
	s := QuantizeSymmetric(q, src)
	back := make([]float32, len(src))
	Dequantize(back, q, s)
	half := float64(s) / 2
	for i := range src {
		if d := math.Abs(float64(src[i] - back[i])); d > half+1e-9 {
			t.Fatalf("element %d: round-trip error %g exceeds s/2 = %g", i, d, half)
		}
	}

	zero := make([]float32, 8)
	if s := QuantizeSymmetric(q[:8], zero); s != 0 {
		t.Fatalf("all-zero scale = %v, want 0", s)
	}
	for _, c := range q[:8] {
		if c != 0 {
			t.Fatal("all-zero input produced nonzero codes")
		}
	}
}

// FuzzQuantize: for arbitrary finite inputs the quantizer must produce
// a finite scale, codes within ±127, a round trip within half a step,
// and never a NaN/Inf on dequantize (CI runs this in the fuzz smoke).
func FuzzQuantize(f *testing.F) {
	f.Add(float32(1), float32(-2), float32(3), float32(0))
	f.Add(float32(0), float32(0), float32(0), float32(0))
	f.Add(float32(1e-38), float32(-1e38), float32(127), float32(-127))
	f.Fuzz(func(t *testing.T, a, b, c, d float32) {
		src := []float32{a, b, c, d}
		for _, v := range src {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Skip("finite inputs only: the kernels never see NaN/Inf")
			}
		}
		q := make([]int8, len(src))
		s := QuantizeSymmetric(q, src)
		if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) || s < 0 {
			t.Fatalf("scale %v is not finite non-negative", s)
		}
		back := make([]float32, len(src))
		Dequantize(back, q, s)
		for i, v := range back {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("dequantize produced %v at %d", v, i)
			}
			if q[i] > 127 || q[i] < -127 {
				t.Fatalf("code %d out of symmetric range", q[i])
			}
			// Half-step bound, slightly relaxed for subnormal scales
			// where the division itself rounds.
			bound := float64(s)/2 + 1e-6*math.Abs(float64(src[i])) + 1e-30
			if d := math.Abs(float64(src[i] - v)); d > bound {
				t.Fatalf("round-trip error %g exceeds %g (src %v)", d, bound, src[i])
			}
		}
	})
}
