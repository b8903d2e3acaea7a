package nn

// fanOutWork is the m·k·n product at or above which a GEMM splits its
// output rows into panels on the shared worker pool (see fanOutPool).
// It is the one threshold of every product, inference and training
// alike. The real training products (16x144x256 = 590k) fall below it
// and run on the calling goroutine: RL pre-training runs in parallel
// across the samples of an update window instead (rl.Trainer), where
// there is far more independent work than inside one small product.
// Paper-size products (128x1152x256) still split by rows, which never
// changes a bit.
const fanOutWork = 1 << 20

// Cache-blocking tile sizes for the matmul kernels. A kP×kN panel of B
// (256×256 float32 = 256 KiB) is streamed against a row block of C, so
// B is re-read from cache instead of memory once n and k outgrow it.
//
// Blocking must not change results bit-for-bit: every output element
// c[i][j] is one float32 accumulator that receives the contributions
// a[i][p]·b[p][j] in strictly increasing p order. Inside a k tile the
// accumulator lives in a register (the microkernels below hold a 1×8
// block of C); between k tiles it is stored to and reloaded from c,
// which round-trips float32 values exactly. Only distinct outputs are
// blocked, never the p loop (that would split the sum into
// differently-rounded partials). Tests pin equality against the naive
// oracle, and the trainer golden pins it end to end.
const (
	mmTileK = 256
	mmTileN = 256
)

// MatMul computes C = A·B with A of shape (m×k), B of shape (k×n),
// and C of shape (m×n), all row-major. C is overwritten.
func MatMul(c, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("nn: MatMul buffer too small")
	}
	if p := fanOutPool(m, m*k*n, fanOutWork); p != nil {
		p.runRows(m, func(r0, r1 int) { gemmRows(c, a, b, nil, k, n, r0, r1, false) })
		return
	}
	gemmRows(c, a, b, nil, k, n, 0, m, false)
}

// MatMulBias computes C = A·B + bias (bias[i] added to every element
// of output row i) with an optional fused ReLU epilogue — the Conv2D
// writeback, applied to each row tile right after its last k tile
// while it is still in cache. Bias is added after the full k sum of an element and ReLU is
// max(0, ·) of the biased value, so the result is bit-identical to
// running the epilogues as separate passes.
func MatMulBias(c, a, b, bias []float32, m, k, n int, relu bool) {
	matMulBias(c, a, b, bias, m, k, n, relu, fanOutWork)
}

// matMulBias is MatMulBias with an explicit fan-out threshold.
func matMulBias(c, a, b, bias []float32, m, k, n int, relu bool, minWork int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n || len(bias) < m {
		panic("nn: MatMulBias buffer too small")
	}
	if p := fanOutPool(m, m*k*n, minWork); p != nil {
		p.runRows(m, func(r0, r1 int) { gemmRows(c, a, b, bias, k, n, r0, r1, relu) })
		return
	}
	gemmRows(c, a, b, bias, k, n, 0, m, relu)
}

// MatMulATB computes C = Aᵀ·B with A of shape (k×m), B of shape
// (k×n): the gradient-w.r.t.-input kernel of Linear/Conv backward.
// Contributions with a[p][i] == 0 are skipped, as in the naive kernel.
func MatMulATB(c, a, b []float32, m, k, n int) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("nn: MatMulATB buffer too small")
	}
	if p := fanOutPool(m, m*k*n, fanOutWork); p != nil {
		p.runRows(m, func(r0, r1 int) { atbRows(c, a, b, m, k, n, r0, r1) })
		return
	}
	atbRows(c, a, b, m, k, n, 0, m)
}

// MatMulABTAcc computes C += A·Bᵀ with A of shape (m×k), B of shape
// (n×k): the weight-gradient kernel (accumulating). Every c[i][j]
// receives one dot product, summed from zero in increasing p order and
// then added to the prior contents.
func MatMulABTAcc(c, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("nn: MatMulABTAcc buffer too small")
	}
	if p := fanOutPool(m, m*k*n, fanOutWork); p != nil {
		p.runRows(m, func(r0, r1 int) { abtAccRows(c, a, b, k, n, r0, r1) })
		return
	}
	abtAccRows(c, a, b, k, n, 0, m)
}

// fanOutPool returns the shared worker pool when a product of the
// given work (m·k·n) over m output rows should fan out, and nil when
// it should run serially: below minWork, for a single row, or with a
// one-worker pool. Callers build their panel closure only on the
// fan-out branch, so the serial path stays allocation-free.
func fanOutPool(m, work, minWork int) *workerPool {
	if work < minWork || m <= 1 {
		return nil
	}
	if p := sharedPool(); p.n > 1 {
		return p
	}
	return nil
}

// gemmRows computes rows [r0, r1) of C = A·B, plus bias[i] (and the
// ReLU) when bias is non-nil, one 1×8 register block of C at a time.
// With k == 0 the single empty tile still writes the zero sums and the
// epilogue.
func gemmRows(c, a, b, bias []float32, k, n, r0, r1 int, relu bool) {
	for p0 := 0; p0 < k || p0 == 0; p0 += mmTileK {
		p1 := min(p0+mmTileK, k)
		last := p1 == k && bias != nil
		for j0 := 0; j0 < n; j0 += mmTileN {
			j1 := min(j0+mmTileN, n)
			for i := r0; i < r1; i++ {
				ci := c[i*n : i*n+n]
				tileRow(ci, a[i*k:], 1, b, p0, p1, n, j0, j1)
				if last {
					bi := bias[i]
					for j := j0; j < j1; j++ {
						v := ci[j] + bi
						if relu && v < 0 {
							v = 0
						}
						ci[j] = v
					}
				}
			}
		}
	}
}

// atbRows computes rows [r0, r1) of C = Aᵀ·B (A k×m, B k×n): row i of
// C is the gemmRows microkernel over column i of A (stride m).
func atbRows(c, a, b []float32, m, k, n, r0, r1 int) {
	if k == 0 {
		clear(c[r0*n : r1*n])
		return
	}
	for p0 := 0; p0 < k; p0 += mmTileK {
		p1 := min(p0+mmTileK, k)
		for j0 := 0; j0 < n; j0 += mmTileN {
			j1 := min(j0+mmTileN, n)
			for i := r0; i < r1; i++ {
				tileRow(c[i*n:i*n+n], a[i:], m, b, p0, p1, n, j0, j1)
			}
		}
	}
}

// tileRow runs one k tile [p0, p1) of one C row over columns [j0, j1):
// ci[j] = (ci[j] if p0 > 0, else 0) + Σ_p a[p·as]·b[p·n+j], p in
// increasing order, skipping a[p·as] == 0. Eight columns at a time
// are summed in registers by block8; the remainder one at a time.
func tileRow(ci, a []float32, as int, b []float32, p0, p1, n, j0, j1 int) {
	j := j0
	for ; j+8 <= j1; j += 8 {
		cj := ci[j : j+8 : j+8]
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		if p0 > 0 {
			s0, s1, s2, s3, s4, s5, s6, s7 = cj[0], cj[1], cj[2], cj[3], cj[4], cj[5], cj[6], cj[7]
		}
		cj[0], cj[1], cj[2], cj[3], cj[4], cj[5], cj[6], cj[7] = block8(a, p0*as, as, p1-p0, b, p0*n+j, n, s0, s1, s2, s3, s4, s5, s6, s7)
	}
	for ; j < j1; j++ {
		var s float32
		if p0 > 0 {
			s = ci[j]
		}
		ao, bo := p0*as, p0*n+j
		for p := p0; p < p1; p++ {
			if av := a[ao]; av != 0 {
				s += av * b[bo]
			}
			ao += as
			bo += n
		}
		ci[j] = s
	}
}

// block8 adds cnt contributions a[ao+q·as]·b[bo+q·n+x], q = 0, 1, …,
// onto the eight register sums s0..s7 (x = 0..7) and returns them.
func block8(a []float32, ao, as, cnt int, b []float32, bo, n int, s0, s1, s2, s3, s4, s5, s6, s7 float32) (float32, float32, float32, float32, float32, float32, float32, float32) {
	for ; cnt > 0; cnt-- {
		if av := a[ao]; av != 0 {
			bp := b[bo : bo+8 : bo+8]
			s0 += av * bp[0]
			s1 += av * bp[1]
			s2 += av * bp[2]
			s3 += av * bp[3]
			s4 += av * bp[4]
			s5 += av * bp[5]
			s6 += av * bp[6]
			s7 += av * bp[7]
		}
		ao += as
		bo += n
	}
	return s0, s1, s2, s3, s4, s5, s6, s7
}

// abtAccRows adds rows [r0, r1) of A·Bᵀ (A m×k, B n×k) into C. Four
// dot products run side by side, each a single register accumulator
// over the whole k axis (a k tile would have to park partial sums
// outside C, whose prior contents are added last).
func abtAccRows(c, a, b []float32, k, n, r0, r1 int) {
	for i := r0; i < r1; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k:][:len(ai)]
			b1 := b[(j+1)*k:][:len(ai)]
			b2 := b[(j+2)*k:][:len(ai)]
			b3 := b[(j+3)*k:][:len(ai)]
			var s0, s1, s2, s3 float32
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci[j] += s0
			ci[j+1] += s1
			ci[j+2] += s2
			ci[j+3] += s3
		}
		for ; j < n; j++ {
			bj := b[j*k:][:len(ai)]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] += s
		}
	}
}
