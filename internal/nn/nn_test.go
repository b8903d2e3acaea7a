package nn

import (
	"math"
	"testing"
	"testing/quick"

	"macroplace/internal/rng"
)

// ---------------------------------------------------------------------------
// Matmul

func naiveMatMul(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := r.IntRange(1, 12), r.IntRange(1, 12), r.IntRange(1, 12)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		for i := range b {
			b[i] = float32(r.NormFloat64())
		}
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMul(got, a, b, m, k, n)
		naiveMatMul(want, a, b, m, k, n)
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("trial %d: got[%d]=%v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMatMulATB(t *testing.T) {
	// A (k×m) = [[1,2],[3,4]], B (k×n) = [[5],[6]] → AᵀB = [[1*5+3*6],[2*5+4*6]] = [[23],[34]].
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6}
	c := make([]float32, 2)
	MatMulATB(c, a, b, 2, 2, 1)
	if c[0] != 23 || c[1] != 34 {
		t.Errorf("ATB = %v, want [23 34]", c)
	}
}

func TestMatMulABTAccAccumulates(t *testing.T) {
	// A (m×k) = [1,2], B (n×k) = [3,4] → ABᵀ = [1*3+2*4] = [11].
	c := []float32{100}
	MatMulABTAcc(c, []float32{1, 2}, []float32{3, 4}, 1, 2, 1)
	if c[0] != 111 {
		t.Errorf("ABTAcc = %v, want 111 (accumulated)", c[0])
	}
}

// ---------------------------------------------------------------------------
// Softmax

func TestSoftmaxSumsToOne(t *testing.T) {
	out := Softmax(nil, []float32{1, 2, 3, 4})
	var sum float32
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Error("softmax must be monotone in logits")
		}
	}
	for _, v := range out {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-6 {
		t.Errorf("sum = %v", sum)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	out := Softmax(nil, []float32{1000, 1000, 1000})
	for _, v := range out {
		if math.Abs(float64(v)-1.0/3) > 1e-6 {
			t.Errorf("huge logits: %v", out)
		}
	}
}

func TestMaskedSoftmax(t *testing.T) {
	logits := []float32{5, 1, 1, 1}
	mask := []float32{0, 1, 0.5, 0}
	out := MaskedSoftmax(nil, logits, mask)
	if out[0] != 0 || out[3] != 0 {
		t.Error("masked entries must have zero probability")
	}
	var sum float32
	for _, v := range out {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-6 {
		t.Errorf("sum = %v", sum)
	}
	// Equal logits: probability proportional to mask weight.
	if math.Abs(float64(out[1]/out[2]-2)) > 1e-5 {
		t.Errorf("mask weighting: %v", out)
	}
	// All-zero mask falls back to plain softmax.
	out2 := MaskedSoftmax(nil, []float32{0, 0}, []float32{0, 0})
	if math.Abs(float64(out2[0]-0.5)) > 1e-6 {
		t.Errorf("fallback: %v", out2)
	}
}

// ---------------------------------------------------------------------------
// Gradient checks

// gradLayer is a layer under gradient check: fwd computes its output
// for input x, and bwd runs its Backward for x and d(out) dy and
// returns d(x).
type gradLayer struct {
	params []*Param
	fwd    func(x []float32) []float32
	bwd    func(x, dy []float32) []float32
}

// lossOf computes 0.5 Σ y². Its gradient w.r.t. y is y itself, which
// makes analytic/numeric comparison simple for any layer.
func lossOf(y []float32) float64 {
	var s float64
	for _, v := range y {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

// analyticPass zeroes the gradients, runs one forward and backward of
// the quadratic loss on x, and returns d(x).
func (l gradLayer) analyticPass(x []float32) []float32 {
	for _, p := range l.params {
		p.ZeroGrad()
	}
	y := l.fwd(x)
	return l.bwd(x, append([]float32(nil), y...))
}

// checkParamGradients verifies analytic parameter gradients against
// central differences for an arbitrary layer under the quadratic loss.
func checkParamGradients(t *testing.T, l gradLayer, x []float32, tol float64) {
	t.Helper()
	l.analyticPass(x)
	const eps = 1e-3
	for _, p := range l.params {
		// Probe a handful of weights per parameter.
		stride := len(p.W)/7 + 1
		for i := 0; i < len(p.W); i += stride {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := lossOf(l.fwd(x))
			p.W[i] = orig - eps
			lm := lossOf(l.fwd(x))
			p.W[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.G[i])
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// checkInputGradient verifies dL/dx against central differences.
func checkInputGradient(t *testing.T, l gradLayer, x []float32, tol float64) {
	t.Helper()
	dx := l.analyticPass(x)
	const eps = 1e-3
	stride := len(x)/7 + 1
	for i := 0; i < len(x); i += stride {
		orig := x[i]
		x[i] = orig + eps
		lp := lossOf(l.fwd(x))
		x[i] = orig - eps
		lm := lossOf(l.fwd(x))
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dx[i])
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
}

func randSlice(r *rng.RNG, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	return x
}

func convLayer(c *Conv2D, h, w int) gradLayer {
	return gradLayer{
		params: c.Params(),
		fwd:    func(x []float32) []float32 { return c.Forward(nil, x, 1, h, w) },
		bwd:    func(x, dy []float32) []float32 { return c.Backward(nil, x, dy, h, w) },
	}
}

func bnLayer(bn *BatchNorm2D, hw int, relu bool) gradLayer {
	return gradLayer{
		params: bn.Params(),
		fwd:    func(x []float32) []float32 { return bn.Forward(nil, x, 1, hw, relu) },
		bwd:    func(x, dy []float32) []float32 { return bn.Backward(nil, x, dy, hw, relu) },
	}
}

func linearLayer(l *Linear, relu bool) gradLayer {
	return gradLayer{
		params: l.Params(),
		fwd:    func(x []float32) []float32 { return l.ApplyInto(make([]float32, l.Out), x, relu) },
		bwd:    func(x, dy []float32) []float32 { return l.Backward(nil, x, dy, relu) },
	}
}

func resLayer(rb *ResBlock, h, w int) gradLayer {
	return gradLayer{
		params: rb.Params(),
		fwd:    func(x []float32) []float32 { return rb.Forward(nil, x, 1, h, w, nil) },
		bwd: func(x, dy []float32) []float32 {
			var acts ResActs
			var ws Workspace
			rb.Forward(&ws, x, 1, h, w, &acts)
			return rb.Backward(&ws, &acts, dy, h, w)
		},
	}
}

func TestConv2DGradients(t *testing.T) {
	r := rng.New(5)
	conv := NewConv2D("c", 2, 3, 3, r)
	x := randSlice(r, 2*5*5)
	checkParamGradients(t, convLayer(conv, 5, 5), x, 2e-2)
	checkInputGradient(t, convLayer(conv, 5, 5), x, 2e-2)
}

func TestConv1x1Gradients(t *testing.T) {
	r := rng.New(6)
	conv := NewConv2D("c", 3, 2, 1, r)
	x := randSlice(r, 3*4*4)
	checkParamGradients(t, convLayer(conv, 4, 4), x, 2e-2)
	checkInputGradient(t, convLayer(conv, 4, 4), x, 2e-2)
}

func TestLinearGradients(t *testing.T) {
	r := rng.New(7)
	lin := NewLinear("l", 10, 6, r)
	x := randSlice(r, 10)
	checkParamGradients(t, linearLayer(lin, false), x, 1e-2)
	checkInputGradient(t, linearLayer(lin, false), x, 1e-2)
}

func TestBatchNormGradients(t *testing.T) {
	r := rng.New(8)
	bn := NewBatchNorm2D("bn", 2)
	// Scale/offset away from identity so gradients are non-trivial.
	bn.Gamma.W[0], bn.Gamma.W[1] = 1.5, 0.7
	bn.Beta.W[0], bn.Beta.W[1] = 0.2, -0.4
	x := randSlice(r, 2*4*4)
	checkParamGradients(t, bnLayer(bn, 16, false), x, 3e-2)
	checkInputGradient(t, bnLayer(bn, 16, false), x, 3e-2)
}

// TestReLUGradient checks the fused ReLU of BatchNorm2D and Linear:
// finite differences through the rectifier, and the mask itself —
// the gradient passes exactly where the pre-activation is not
// negative.
func TestReLUGradient(t *testing.T) {
	r := rng.New(9)
	bn := NewBatchNorm2D("bn", 2)
	bn.Beta.W[0], bn.Beta.W[1] = 0.3, -0.2
	x := randSlice(r, 2*4*4)
	checkParamGradients(t, bnLayer(bn, 16, true), x, 3e-2)
	checkInputGradient(t, bnLayer(bn, 16, true), x, 3e-2)

	lin := NewLinear("l", 10, 20, r)
	xl := randSlice(r, 10)
	checkParamGradients(t, linearLayer(lin, true), xl, 1e-2)
	checkInputGradient(t, linearLayer(lin, true), xl, 1e-2)

	// With dy = 1 everywhere, each bias gradient is 1 exactly where the
	// pre-activation is ≥ 0 and 0 elsewhere.
	pre := lin.ApplyInto(make([]float32, 20), xl, false)
	dy := make([]float32, 20)
	for i := range dy {
		dy[i] = 1
	}
	lin.Bias.ZeroGrad()
	lin.Backward(nil, xl, dy, true)
	blocked := 0
	for o, v := range pre {
		want := float32(1)
		if v < 0 {
			want = 0
			blocked++
		}
		if lin.Bias.G[o] != want {
			t.Errorf("bias grad %d = %v for pre-activation %v", o, lin.Bias.G[o], v)
		}
	}
	if blocked == 0 || blocked == len(pre) {
		t.Fatalf("%d of %d pre-activations negative: the mask is not exercised", blocked, len(pre))
	}
}

// TestFusedReLUPassesAtExactZero: a pre-activation of exactly 0 passes
// the gradient (v < 0 blocks, v == 0 passes). The rectified output is
// +0 there, as it is for a negative pre-activation, so a mask rebuilt
// from the output would block it. Every fused rectifier is checked:
// BatchNorm+ReLU, Linear+ReLU and the residual skip add+ReLU.
func TestFusedReLUPassesAtExactZero(t *testing.T) {
	const h, w = 3, 3
	const hw = h * w
	ones := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = 1
		}
		return s
	}

	// A constant channel normalises to x̂ = 0 and β = 0: BN output 0.
	bn := NewBatchNorm2D("bn", 1)
	x := make([]float32, hw)
	for i := range x {
		x[i] = 2.5
	}
	if y := bn.Forward(nil, x, 1, hw, false); y[0] != 0 {
		t.Fatalf("BN pre-activation %v, want exactly 0", y[0])
	}
	bn.Backward(nil, x, ones(hw), hw, true)
	if bn.Beta.G[0] != hw {
		t.Errorf("BN+ReLU dβ = %v, want %v: the gradient must pass at 0", bn.Beta.G[0], hw)
	}

	// Zero input and zero bias: Linear output 0.
	lin := NewLinear("l", 4, 3, rng.New(1))
	lin.Backward(nil, make([]float32, 4), ones(3), true)
	for o, g := range lin.Bias.G {
		if g != 1 {
			t.Errorf("Linear+ReLU db[%d] = %v, want 1", o, g)
		}
	}

	// Zero input and zero biases: every branch activation is 0, so the
	// skip sum is 0 + 0. The branch gradient cancels (BN of a constant
	// map), which leaves d(x) = the skip's share of dy.
	rb := NewResBlock("r", 2, rng.New(2))
	var acts ResActs
	var ws Workspace
	rb.Forward(&ws, make([]float32, 2*hw), 1, h, w, &acts)
	dx := rb.Backward(&ws, &acts, ones(2*hw), h, w)
	for i, v := range dx {
		if v != 1 {
			t.Fatalf("ResBlock skip d(x)[%d] = %v, want 1", i, v)
		}
	}
}

func TestResBlockGradients(t *testing.T) {
	r := rng.New(10)
	rb := NewResBlock("rb", 2, r)
	x := randSlice(r, 2*4*4)
	checkParamGradients(t, resLayer(rb, 4, 4), x, 5e-2)
	checkInputGradient(t, resLayer(rb, 4, 4), x, 5e-2)
}

func TestEmbedding(t *testing.T) {
	r := rng.New(12)
	e := NewEmbedding("e", 4, 3, r)
	if v := e.At(2); len(v) != 3 {
		t.Fatalf("row dim = %d", len(v))
	}
	// Gradient accumulates into the row of the id, clamped like At.
	e.Backward(1, []float32{1, 2, 3})
	e.Backward(99, []float32{4, 5, 6})
	if e.Weight.G[3] != 1 || e.Weight.G[4] != 2 || e.Weight.G[5] != 3 {
		t.Errorf("grad row 1 = %v", e.Weight.G[3:6])
	}
	if e.Weight.G[9] != 4 || e.Weight.G[10] != 5 || e.Weight.G[11] != 6 {
		t.Errorf("grad row 3 (clamped) = %v", e.Weight.G[9:12])
	}
	// Finite differences of the quadratic loss of row 2.
	emb := gradLayer{
		params: e.Params(),
		fwd:    func([]float32) []float32 { return append([]float32(nil), e.At(2)...) },
		bwd: func(_, dy []float32) []float32 {
			e.Backward(2, dy)
			return nil
		},
	}
	checkParamGradients(t, emb, nil, 1e-2)
}

// ---------------------------------------------------------------------------
// Adam

// optimizerConverges minimises Σ (w - target)² over 8 scalars
// (gradient 2(w - target)) with opt.
func optimizerConverges(t *testing.T, makeOpt func(p *Param) *Adam) {
	t.Helper()
	p := NewParam("w", 8)
	target := []float32{1, -2, 3, 0.5, -0.25, 2, -1, 0}
	for i := range p.W {
		p.W[i] = 5
	}
	opt := makeOpt(p)
	for step := 0; step < 500; step++ {
		for i := range p.W {
			p.G[i] = 2 * (p.W[i] - target[i])
		}
		opt.Step()
	}
	for i := range p.W {
		if math.Abs(float64(p.W[i]-target[i])) > 0.05 {
			t.Errorf("w[%d] = %v, want %v", i, p.W[i], target[i])
		}
	}
}

func TestAdamConverges(t *testing.T) {
	optimizerConverges(t, func(p *Param) *Adam { return NewAdam([]*Param{p}, 0.05) })
}

func TestAdamClipsGradients(t *testing.T) {
	p := NewParam("w", 2)
	a := NewAdam([]*Param{p}, 0.1)
	a.ClipNorm = 1
	p.G[0], p.G[1] = 300, 400 // norm 500 → scaled to 1
	before := [2]float32{p.W[0], p.W[1]}
	a.Step()
	// First Adam step magnitude is ≈ lr regardless, but direction must
	// match the clipped gradient ratio 3:4.
	d0 := float64(before[0] - p.W[0])
	d1 := float64(before[1] - p.W[1])
	if d0 <= 0 || d1 <= 0 {
		t.Fatal("weights should decrease")
	}
	// Gradients must be cleared after Step.
	if p.G[0] != 0 || p.G[1] != 0 {
		t.Error("Step must clear gradients")
	}
}

// ---------------------------------------------------------------------------
// Properties

func TestIm2colCol2imAdjointProperty(t *testing.T) {
	// ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ at batch 1 — the defining
	// adjoint identity that conv backward relies on.
	r := rng.New(21)
	f := func(seed int64) bool {
		rr := rng.New(seed ^ r.Int63())
		cin, h, w, k := rr.IntRange(1, 3), rr.IntRange(2, 6), rr.IntRange(2, 6), 3
		x := make([]float32, cin*h*w)
		for i := range x {
			x[i] = float32(rr.NormFloat64())
		}
		ck := cin * k * k
		cols := make([]float32, ck*h*w)
		im2colBatch(cols, x, cin, 1, h, w, k, k/2)
		y := make([]float32, ck*h*w)
		for i := range y {
			y[i] = float32(rr.NormFloat64())
		}
		back := make([]float32, cin*h*w)
		col2im(back, y, cin, h, w, k, k/2)
		var lhs, rhs float64
		for i := range cols {
			lhs += float64(cols[i]) * float64(y[i])
		}
		for i := range x {
			rhs += float64(x[i]) * float64(back[i])
		}
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestIm2colMatchesDefinition checks im2colBatch element by element
// against its definition, cols[(ci·K+ky)·K+kx][b·hw + oy·w + ox] =
// x[ci][b][oy+ky−pad][ox+kx−pad] or 0 in the padding, on batches,
// non-square maps and kernels wider than the map.
func TestIm2colMatchesDefinition(t *testing.T) {
	r := rng.New(22)
	for _, sh := range [][5]int{ // cin, batch, h, w, k
		{1, 1, 4, 4, 3}, {2, 3, 5, 3, 3}, {3, 2, 4, 6, 1}, {1, 2, 2, 2, 5}, {2, 1, 1, 7, 3},
	} {
		cin, batch, h, w, k := sh[0], sh[1], sh[2], sh[3], sh[4]
		hw, pad := h*w, k/2
		x := randSlice(r, cin*batch*hw)
		cols := randSlice(r, cin*k*k*batch*hw) // garbage must be overwritten
		im2colBatch(cols, x, cin, batch, h, w, k, pad)
		for ci := 0; ci < cin; ci++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					row := (ci*k+ky)*k + kx
					for b := 0; b < batch; b++ {
						for oy := 0; oy < h; oy++ {
							for ox := 0; ox < w; ox++ {
								iy, ix := oy+ky-pad, ox+kx-pad
								var want float32
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									want = x[(ci*batch+b)*hw+iy*w+ix]
								}
								if got := cols[row*batch*hw+b*hw+oy*w+ox]; got != want {
									t.Fatalf("shape %v: cols[%d][%d,%d,%d] = %v, want %v", sh, row, b, oy, ox, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}
