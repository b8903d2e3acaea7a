package nn

import (
	"math"
	"sync"
)

// Symmetric int8 quantization for the inference GEMM.
//
// The quantized backend trades bit-identity for throughput: weights
// (the A operand — each row is one output channel of a convolution)
// are quantized with a per-row scale, activations (the B operand) with
// one per-tensor scale, and the product accumulates in int32 before a
// single dequantize-and-bias epilogue. The error model is the standard
// symmetric-uniform one: each quantized value carries at most scale/2
// absolute error, so every output element's error is bounded by
//
//	|Δc[i][j]| ≤ k · (saᵢ/2 · max|B| + sb/2 · max|Aᵢ| + saᵢ·sb/4)
//
// which the agent-level accuracy gate (policy KL, value MAE vs the
// float oracle) pins empirically. Quantization is dynamic — computed
// per call from the tensors themselves — so retrained weights can
// never be served through stale scales.

// QuantizeSymmetric quantizes src into q (len(q) ≥ len(src)) with the
// symmetric scale s = max|src|/127, returning s. Each element maps to
// clamp(round(src[i]/s), −127, 127); an all-zero src yields scale 0
// and all-zero codes. Finite inputs always produce a finite scale and
// in-range codes (FuzzQuantize pins this).
func QuantizeSymmetric(q []int8, src []float32) float32 {
	var maxAbs float32
	for _, v := range src {
		a := float32(math.Abs(float64(v)))
		if a > maxAbs {
			maxAbs = a
		}
	}
	s := maxAbs / 127
	if s == 0 {
		// Zero tensor, or maxAbs so subnormal the scale underflows:
		// either way the tensor is all-zero at int8 resolution.
		for i := range src {
			q[i] = 0
		}
		return 0
	}
	// The reciprocal is taken in float64: a subnormal float32 scale
	// would overflow 1/s to +Inf in float32 and turn zero inputs into
	// NaN codes (FuzzQuantize found this).
	inv := 1 / float64(s)
	for i, v := range src {
		r := math.RoundToEven(float64(v) * inv)
		if r > 127 {
			r = 127
		} else if r < -127 {
			r = -127
		}
		q[i] = int8(r)
	}
	return s
}

// Dequantize expands codes back to float32: dst[i] = s·q[i]. The
// round trip |src[i] − s·q[i]| is bounded by s/2 (half a quantization
// step) for in-range inputs.
func Dequantize(dst []float32, q []int8, s float32) {
	for i := range dst {
		dst[i] = s * float32(q[i])
	}
}

// int8Backend implements Backend with dynamic symmetric quantization:
// per-output-channel (per-row-of-A) weight scales, per-tensor
// activation scale, int32 accumulation. Safe for arbitrary k in this
// codebase: |qa·qb| ≤ 127², so int32 cannot overflow before
// k ≈ 1.3e5, far above any im2col depth here.
type int8Backend struct {
	scratch sync.Pool // *int8Scratch
}

type int8Scratch struct {
	qa, qb []int8
	sa     []float32
	acc    []int32
}

func (s *int8Scratch) grow(qaN, qbN, saN, accN int) {
	if cap(s.qa) < qaN {
		s.qa = make([]int8, qaN)
	}
	s.qa = s.qa[:qaN]
	if cap(s.qb) < qbN {
		s.qb = make([]int8, qbN)
	}
	s.qb = s.qb[:qbN]
	if cap(s.sa) < saN {
		s.sa = make([]float32, saN)
	}
	s.sa = s.sa[:saN]
	if cap(s.acc) < accN {
		s.acc = make([]int32, accN)
	}
	s.acc = s.acc[:accN]
}

func (be *int8Backend) Name() string { return "int8" }

func (be *int8Backend) MatMulBias(c, a, b, bias []float32, m, k, n int, relu bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("nn: MatMulBias buffer too small")
	}
	pool := sharedPool()
	workers := pool.n
	if workers > m {
		workers = m
	}
	if m*k*n < parallelMinWork {
		workers = 1
	}
	sc, _ := be.scratch.Get().(*int8Scratch)
	if sc == nil {
		sc = &int8Scratch{}
	}
	// Per-panel int32 accumulator rows live side by side in sc.acc so
	// concurrent panels never share a cache line's worth of logic.
	sc.grow(m*k, k*n, m, workers*n)

	// Per-output-channel weight scales: one symmetric scale per row of
	// A, i.e. per convolution output channel.
	for i := 0; i < m; i++ {
		sc.sa[i] = QuantizeSymmetric(sc.qa[i*k:(i+1)*k], a[i*k:(i+1)*k])
	}
	// Per-tensor activation scale.
	sb := QuantizeSymmetric(sc.qb, b[:k*n])

	if workers <= 1 {
		int8GemmRows(c, sc.qa, sc.sa, sc.qb, sb, bias, k, n, 0, m, sc.acc[:n], relu)
	} else {
		chunk := (m + workers - 1) / workers
		panels := (m + chunk - 1) / chunk
		pool.run(panels, func(panel int) {
			r0 := panel * chunk
			r1 := r0 + chunk
			if r1 > m {
				r1 = m
			}
			int8GemmRows(c, sc.qa, sc.sa, sc.qb, sb, bias, k, n, r0, r1, sc.acc[panel*n:(panel+1)*n], relu)
		})
	}
	be.scratch.Put(sc)
}

// int8GemmRows computes rows [r0, r1) of the quantized product with a
// shared int32 accumulator row (acc, len ≥ n) and the fused
// dequantize + bias (+ ReLU) epilogue.
func int8GemmRows(c []float32, qa []int8, sa []float32, qb []int8, sb float32, bias []float32, k, n, r0, r1 int, acc []int32, relu bool) {
	acc = acc[:n]
	for i := r0; i < r1; i++ {
		for x := range acc {
			acc[x] = 0
		}
		ai := qa[i*k : i*k+k]
		for p := 0; p < k; p++ {
			av := int32(ai[p])
			if av == 0 {
				continue
			}
			bp := qb[p*n : p*n+n : p*n+n]
			j := 0
			for ; j+4 <= n; j += 4 {
				acc[j] += av * int32(bp[j])
				acc[j+1] += av * int32(bp[j+1])
				acc[j+2] += av * int32(bp[j+2])
				acc[j+3] += av * int32(bp[j+3])
			}
			for ; j < n; j++ {
				acc[j] += av * int32(bp[j])
			}
		}
		scale := sa[i] * sb
		bi := bias[i]
		ci := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			v := float32(acc[j])*scale + bi
			if relu && v < 0 {
				v = 0
			}
			ci[j] = v
		}
	}
}
