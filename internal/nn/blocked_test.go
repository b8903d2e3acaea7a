package nn

import (
	"math"
	"strings"
	"testing"

	"macroplace/internal/rng"
)

// The blocked/unrolled matmul kernels carry a bit-identity contract:
// for every output element the k-axis contributions accumulate in
// strictly increasing p order, exactly like the naive oracle, so
// blocking must be invisible at the float32 bit level. The tests below
// pin exact equality (not tolerance) on shapes chosen to exercise
// every tile-remainder and unroll-remainder path: primes and odd sizes
// straddling the mmTileK/mmTileN boundaries and the 4-wide unroll.

var exactShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 7}, {7, 3, 5}, {13, 11, 17},
	{2, 129, 3}, {3, 131, 259}, {5, 257, 31}, {1, 128, 256},
	{4, 130, 258}, {29, 37, 41},
}

func fillNorm(r *rng.RNG, s []float32) {
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
}

func requireExact(t *testing.T, what string, shape [3]int, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s %v: element %d = %v (bits %x), oracle %v (bits %x)",
				what, shape, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestMatMulExactlyMatchesNaiveOnOddShapes(t *testing.T) {
	r := rng.New(21)
	for _, sh := range exactShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillNorm(r, a)
		fillNorm(r, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMul(got, a, b, m, k, n)
		naiveMatMul(want, a, b, m, k, n)
		requireExact(t, "MatMul", sh, got, want)
	}
}

func TestMatMulBiasExactlyMatchesSeparateEpilogues(t *testing.T) {
	r := rng.New(22)
	for _, sh := range exactShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		bias := make([]float32, m)
		fillNorm(r, a)
		fillNorm(r, b)
		fillNorm(r, bias)
		for _, relu := range []bool{false, true} {
			got := make([]float32, m*n)
			MatMulBias(got, a, b, bias, m, k, n, relu)
			want := make([]float32, m*n)
			naiveMatMul(want, a, b, m, k, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					v := want[i*n+j] + bias[i]
					if relu && v < 0 {
						v = 0
					}
					want[i*n+j] = v
				}
			}
			requireExact(t, "MatMulBias", sh, got, want)
		}
	}
}

// naiveATB is the pre-blocking MatMulATB: contributions accumulate in
// increasing p order per output element.
func naiveATB(c, a, b []float32, m, k, n int) {
	for x := 0; x < m*n; x++ {
		c[x] = 0
	}
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += av * b[p*n+j]
			}
		}
	}
}

func TestMatMulATBExactlyMatchesNaive(t *testing.T) {
	r := rng.New(23)
	for _, sh := range exactShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, k*m)
		b := make([]float32, k*n)
		fillNorm(r, a)
		fillNorm(r, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMulATB(got, a, b, m, k, n)
		naiveATB(want, a, b, m, k, n)
		requireExact(t, "MatMulATB", sh, got, want)
	}
}

func TestMatMulABTAccExactlyMatchesNaive(t *testing.T) {
	r := rng.New(24)
	for _, sh := range exactShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, n*k)
		fillNorm(r, a)
		fillNorm(r, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		fillNorm(r, got) // accumulation must add onto prior contents
		copy(want, got)
		MatMulABTAcc(got, a, b, m, k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * b[j*k+p]
				}
				want[i*n+j] += s
			}
		}
		requireExact(t, "MatMulABTAcc", sh, got, want)
	}
}

func TestWorkspaceVariantsBitIdenticalToAllocating(t *testing.T) {
	const cin, cout, kk, h, w, batch = 3, 4, 3, 5, 5, 3
	hw := h * w
	r := rng.New(25)
	conv := NewConv2D("c", cin, cout, kk, r)
	fillNorm(r, conv.Bias.W)
	bn := NewBatchNorm2D("b", cout)
	fillNorm(r, bn.Gamma.W)
	fillNorm(r, bn.Beta.W)
	rb := NewResBlock("r", cout, r)
	lin := NewLinear("l", hw, 7, r)

	x := make([]float32, cin*batch*hw)
	fillNorm(r, x)

	dy := make([]float32, cout*hw)
	fillNorm(r, dy)
	dl := make([]float32, 7)
	fillNorm(r, dl)

	var ws Workspace
	for pass := 0; pass < 3; pass++ { // pass 0 warms the arena
		ws.Reset()
		co := conv.Forward(&ws, x, batch, h, w)
		requireExact(t, "Conv2D.Forward", [3]int{pass, 0, 0},
			co, conv.Forward(nil, x, batch, h, w))

		bo := bn.Forward(&ws, co, batch, hw, true)
		requireExact(t, "BatchNorm2D.Forward+ReLU", [3]int{pass, 0, 0},
			bo, bn.Forward(nil, co, batch, hw, true))

		ro := rb.Forward(&ws, bo, batch, h, w, nil)
		requireExact(t, "ResBlock.Forward", [3]int{pass, 0, 0},
			ro, rb.Forward(nil, bo, batch, h, w, nil))

		li := lin.ApplyInto(ws.Take(7), ro[:hw], true)
		requireExact(t, "Linear.ApplyInto+ReLU", [3]int{pass, 0, 0},
			li, lin.ApplyInto(make([]float32, 7), ro[:hw], true))

		// The backwards at batch 1 write every element of d(x) on a
		// recycled arena too.
		x1, c1 := x[:cin*hw], co[:cout*hw]
		requireExact(t, "Conv2D.Backward", [3]int{pass, 0, 0},
			conv.Backward(&ws, x1, dy, h, w), conv.Backward(nil, x1, dy, h, w))
		requireExact(t, "BatchNorm2D.Backward+ReLU", [3]int{pass, 0, 0},
			bn.Backward(&ws, c1, dy, hw, true), bn.Backward(nil, c1, dy, hw, true))
		requireExact(t, "Linear.Backward+ReLU", [3]int{pass, 0, 0},
			lin.Backward(&ws, ro[:hw], dl, true), lin.Backward(nil, ro[:hw], dl, true))
		var acts ResActs
		rb.Forward(&ws, c1, 1, h, w, &acts)
		requireExact(t, "ResBlock.Backward", [3]int{pass, 0, 0},
			rb.Backward(&ws, &acts, dy, h, w), rb.Backward(nil, &acts, dy, h, w))
	}
}

func TestWorkspaceZeroAllocationsAfterWarmup(t *testing.T) {
	const cin, cout, h, w, batch = 2, 3, 6, 6, 4
	r := rng.New(26)
	conv := NewConv2D("c", cin, cout, 3, r)
	x := make([]float32, cin*batch*h*w)
	fillNorm(r, x)

	var ws Workspace
	ws.Reset()
	conv.Forward(&ws, x, batch, h, w) // warm-up pass
	allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		conv.Forward(&ws, x, batch, h, w)
	})
	if allocs != 0 {
		t.Fatalf("warm workspace pass allocates %v times, want 0", allocs)
	}
}

// TestWorkspaceMarkReleaseZeroAllocs: a convolution's forward and
// backward hand their im2col columns (and their gradient) back to the
// workspace, so the arena grows to the peak of the live buffers rather
// than the sum of every Take, and a warm pass stays allocation-free.
func TestWorkspaceMarkReleaseZeroAllocs(t *testing.T) {
	const cin, cout, h, w, batch = 3, 4, 6, 6, 2
	hw, ck := h*w, cin*9
	r := rng.New(29)
	conv := NewConv2D("c", cin, cout, 3, r)
	for _, p := range conv.Params() {
		p.G = make([]float32, len(p.W))
	}
	x := make([]float32, cin*batch*hw)
	fillNorm(r, x)
	dy := make([]float32, cout*hw)
	fillNorm(r, dy)

	var ws Workspace
	pass := func() {
		ws.Reset()
		conv.Forward(&ws, x, batch, h, w)
		conv.Backward(&ws, x[:cin*hw], dy, h, w)
	}
	pass() // warm-up pass
	peak := cout*batch*hw + max(ck*batch*hw, cin*hw+2*ck*hw)
	if ws.need != peak {
		t.Fatalf("high-water mark %d, want the peak %d (the sum of takes is %d)",
			ws.need, peak, cout*batch*hw+ck*batch*hw+cin*hw+2*ck*hw)
	}
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("warm mark/release pass allocates %v times, want 0", allocs)
	}
	if len(ws.arena) != peak {
		t.Fatalf("arena grew to %d floats, want the peak %d", len(ws.arena), peak)
	}

	mark := ws.Mark()
	a := ws.Take(5)
	ws.Release(mark)
	if b := ws.Take(5); &a[0] != &b[0] {
		t.Fatal("Take after Release did not reuse the released buffer")
	}
}

func TestWorkspaceNilIsValid(t *testing.T) {
	var ws *Workspace
	ws.Reset() // must not panic
	ws.Release(ws.Mark())
	buf := ws.Take(5)
	if len(buf) != 5 {
		t.Fatalf("nil workspace Take returned len %d", len(buf))
	}
}

// fanOutShapes are products at or above the fan-out threshold, so
// their rows split into panels on the pool: the paper's 128x1152x256
// tower product, an input-gradient-like product with many short rows,
// and odd n (and m) that leave a ragged tail after the 8-wide register
// blocks and an uneven last panel.
var fanOutShapes = [][3]int{
	{128, 1152, 256}, {1152, 16, 64}, {16, 257, 263}, {37, 129, 301},
}

// fillWithZeros fills s with normal samples, a third of them replaced
// by exact zeros (some negative), which the row kernels skip.
func fillWithZeros(r *rng.RNG, s []float32) {
	fillNorm(r, s)
	for i := range s {
		switch i % 6 {
		case 1:
			s[i] = 0
		case 4:
			s[i] = float32(math.Copysign(0, -1))
		}
	}
}

// requireFansOut fails the test if a product of this shape would run
// serially under minWork, which would make the exactness test below
// vacuous for the fan-out.
func requireFansOut(t *testing.T, sh [3]int, minWork int) {
	t.Helper()
	if fanOutPool(sh[0], sh[0]*sh[1]*sh[2], minWork) == nil {
		t.Fatalf("shape %v does not fan out at threshold %d", sh, minWork)
	}
}

// TestFanOutExactlyMatchesNaive pins the pooled fan-out of every GEMM
// product bit for bit against the naive oracles, with the pool forced
// to three workers so single-CPU runs cover the panels too.
func TestFanOutExactlyMatchesNaive(t *testing.T) {
	forcePoolWorkers(t, 3)
	r := rng.New(27)
	for _, sh := range fanOutShapes {
		m, k, n := sh[0], sh[1], sh[2]

		// C = A·B + bias through MatMulBias.
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		bias := make([]float32, m)
		fillWithZeros(r, a)
		fillNorm(r, b)
		fillNorm(r, bias)
		sum := make([]float32, m*n)
		naiveMatMul(sum, a, b, m, k, n)
		requireFansOut(t, sh, fanOutWork)
		for _, relu := range []bool{false, true} {
			want := make([]float32, m*n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					v := sum[i*n+j] + bias[i]
					if relu && v < 0 {
						v = 0
					}
					want[i*n+j] = v
				}
			}
			got := make([]float32, m*n)
			MatMulBias(got, a, b, bias, m, k, n, relu)
			requireExact(t, "MatMulBias", sh, got, want)
		}

		// C = Aᵀ·B with A (k×m).
		at := make([]float32, k*m)
		fillWithZeros(r, at)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMulATB(got, at, b, m, k, n)
		naiveATB(want, at, b, m, k, n)
		requireExact(t, "MatMulATB", sh, got, want)

		// C += A·Bᵀ with B (n×k), onto nonzero prior contents.
		bt := make([]float32, n*k)
		fillNorm(r, bt)
		fillNorm(r, got)
		copy(want, got)
		MatMulABTAcc(got, a, bt, m, k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * bt[j*k+p]
				}
				want[i*n+j] += s
			}
		}
		requireExact(t, "MatMulABTAcc", sh, got, want)
	}
}

// TestGEMMLengthGuards: every product checks its buffers up front and
// panics on the calling goroutine with a named message, before any
// row panel starts.
func TestGEMMLengthGuards(t *testing.T) {
	forcePoolWorkers(t, 3)
	m, k, n := 16, 144, 256
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	bias := make([]float32, m)
	cases := map[string]func(){
		"MatMul":             func() { MatMul(c[:m*n-1], a, b, m, k, n) },
		"MatMulBias":         func() { MatMulBias(c, a, b[:k*n-1], bias, m, k, n, false) },
		"MatMulBias(bias)":   func() { MatMulBias(c, a, b, bias[:m-1], m, k, n, true) },
		"MatMulATB":          func() { MatMulATB(c[:m*n-1], a, b, m, k, n) },
		"MatMulATB(A)":       func() { MatMulATB(c, a[:k*m-1], b, m, k, n) },
		"MatMulABTAcc":       func() { MatMulABTAcc(c[:m*n-1], a, b, m, k, n) },
		"MatMulABTAcc(B)":    func() { MatMulABTAcc(c, a, b[:n*k-1], m, k, n) },
		"parallel backend":   func() { (&parallelBackend{}).MatMulBias(c, a[:m*k-1], b, bias, m, k, n, false) },
		"MatMulABTAcc(A, k)": func() { MatMulABTAcc(c, a, b, m, k+1, n) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				v := recover()
				msg, _ := v.(string)
				if !strings.Contains(msg, "buffer too small") {
					t.Errorf("%s: panic %v, want a buffer-too-small guard", name, v)
				}
			}()
			call()
		}()
	}
}

// TestFanOutPanelPanicReRaisesOnCaller: a panic inside one row panel
// on a pool worker (here each product's row kernel is handed an output
// one row short, the failure its length guard now stops up front) must
// re-raise on the calling goroutine instead of crashing the process,
// and the pool must keep producing exact results afterwards.
func TestFanOutPanelPanicReRaisesOnCaller(t *testing.T) {
	forcePoolWorkers(t, 3)
	m, k, n := 37, 129, 301
	r := rng.New(28)
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	bias := make([]float32, m)
	at := make([]float32, k*m)
	bt := make([]float32, n*k)
	for _, s := range [][]float32{a, b, bias, at, bt} {
		fillNorm(r, s)
	}
	short := make([]float32, (m-1)*n)
	panels := map[string]func(r0, r1 int){
		"MatMulBias":   func(r0, r1 int) { gemmRows(short, a, b, bias, k, n, r0, r1, true) },
		"MatMulATB":    func(r0, r1 int) { atbRows(short, at, b, m, k, n, r0, r1) },
		"MatMulABTAcc": func(r0, r1 int) { abtAccRows(short, a, bt, k, n, r0, r1) },
	}
	for name, rows := range panels {
		p := fanOutPool(m, m*k*n, fanOutWork)
		if p == nil {
			t.Fatalf("%s: %dx%dx%d does not fan out", name, m, k, n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: panel panic was not re-raised on the caller", name)
				}
			}()
			p.runRows(m, rows)
		}()
	}

	got := make([]float32, m*n)
	want := make([]float32, m*n)
	MatMulBias(got, a, b, bias, m, k, n, true)
	gemmRows(want, a, b, bias, k, n, 0, m, true)
	requireExact(t, "MatMulBias after panel panics", [3]int{m, k, n}, got, want)
	MatMulATB(got, at, b, m, k, n)
	atbRows(want, at, b, m, k, n, 0, m)
	requireExact(t, "MatMulATB after panel panics", [3]int{m, k, n}, got, want)
}
