package nn

import (
	"math"
	"testing"
	"testing/quick"

	"macroplace/internal/rng"
)

// ---------------------------------------------------------------------------
// Tensor and matmul

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3)
	if x.Len() != 6 {
		t.Fatalf("Len = %d", x.Len())
	}
	x.Data[0] = 1
	c := x.Clone()
	c.Data[0] = 5
	if x.Data[0] != 1 {
		t.Error("Clone must copy data")
	}
	x.AddInPlace(c)
	if x.Data[0] != 6 {
		t.Error("AddInPlace wrong")
	}
	x.Scale(0.5)
	if x.Data[0] != 3 {
		t.Error("Scale wrong")
	}
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Error("Zero failed")
		}
	}
}

func TestFromSliceShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong size should panic")
		}
	}()
	FromSlice(make([]float32, 5), 2, 3)
}

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

// lossOf computes 0.5 Σ y². Its gradient w.r.t. y is y itself, which
// makes analytic/numeric comparison simple for any layer.
func lossOf(y *Tensor) float64 {
	var s float64
	for _, v := range y.Data {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

func lossGrad(y *Tensor) *Tensor { return y.Clone() }

// checkParamGradients verifies analytic parameter gradients against
// central differences for an arbitrary layer under the quadratic loss.
func checkParamGradients(t *testing.T, layer Layer, x *Tensor, tol float64) {
	t.Helper()
	forward := func() float64 { return lossOf(layer.Forward(x.Clone())) }

	// Analytic pass.
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	y := layer.Forward(x.Clone())
	layer.Backward(lossGrad(y))

	const eps = 1e-3
	for _, p := range layer.Params() {
		// Probe a handful of weights per parameter.
		stride := len(p.W)/7 + 1
		for i := 0; i < len(p.W); i += stride {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := forward()
			p.W[i] = orig - eps
			lm := forward()
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
func checkInputGradient(t *testing.T, layer Layer, x *Tensor, tol float64) {
	t.Helper()
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	y := layer.Forward(x.Clone())
	dx := layer.Backward(lossGrad(y))

	const eps = 1e-3
	stride := len(x.Data)/7 + 1
	for i := 0; i < len(x.Data); i += stride {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(layer.Forward(x.Clone()))
		x.Data[i] = orig - eps
		lm := lossOf(layer.Forward(x.Clone()))
		x.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dx.Data[i])
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
}

func randTensor(r *rng.RNG, shape ...int) *Tensor {
	x := NewTensor(shape...)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64())
	}
	return x
}

func TestConv2DGradients(t *testing.T) {
	r := rng.New(5)
	conv := NewConv2D("c", 2, 3, 3, r)
	x := randTensor(r, 2, 5, 5)
	checkParamGradients(t, conv, x, 2e-2)
	checkInputGradient(t, conv, x, 2e-2)
}

func TestConv1x1Gradients(t *testing.T) {
	r := rng.New(6)
	conv := NewConv2D("c", 3, 2, 1, r)
	x := randTensor(r, 3, 4, 4)
	checkParamGradients(t, conv, x, 2e-2)
	checkInputGradient(t, conv, x, 2e-2)
}

func TestLinearGradients(t *testing.T) {
	r := rng.New(7)
	lin := NewLinear("l", 10, 6, r)
	x := randTensor(r, 10)
	checkParamGradients(t, lin, x, 1e-2)
	checkInputGradient(t, lin, x, 1e-2)
}

func TestBatchNormGradients(t *testing.T) {
	r := rng.New(8)
	bn := NewBatchNorm2D("bn", 2)
	// Scale/offset away from identity so gradients are non-trivial.
	bn.Gamma.W[0], bn.Gamma.W[1] = 1.5, 0.7
	bn.Beta.W[0], bn.Beta.W[1] = 0.2, -0.4
	x := randTensor(r, 2, 4, 4)
	checkParamGradients(t, bn, x, 3e-2)
	checkInputGradient(t, bn, x, 3e-2)
}

func TestReLUGradient(t *testing.T) {
	r := rng.New(9)
	relu := NewReLU()
	x := randTensor(r, 20)
	y := relu.Forward(x)
	dy := NewTensor(20)
	for i := range dy.Data {
		dy.Data[i] = 1
	}
	dx := relu.Backward(dy)
	for i := range x.Data {
		want := float32(0)
		if x.Data[i] >= 0 {
			want = 1
		}
		if dx.Data[i] != want {
			t.Errorf("dx[%d] = %v for x=%v", i, dx.Data[i], x.Data[i])
		}
		if x.Data[i] > 0 && y.Data[i] != x.Data[i] {
			t.Errorf("forward pass wrong at %d", i)
		}
		if x.Data[i] < 0 && y.Data[i] != 0 {
			t.Errorf("negative input not clamped at %d", i)
		}
	}
}

func TestResBlockGradients(t *testing.T) {
	r := rng.New(10)
	rb := NewResBlock("rb", 2, r)
	x := randTensor(r, 2, 4, 4)
	checkParamGradients(t, rb, x, 5e-2)
	checkInputGradient(t, rb, x, 5e-2)
}

func TestEmbedding(t *testing.T) {
	r := rng.New(12)
	e := NewEmbedding("e", 4, 3, r)
	v := e.Lookup(2)
	if v.Len() != 3 {
		t.Fatalf("lookup dim = %d", v.Len())
	}
	// Out-of-range ids clamp.
	lo := e.Lookup(-5)
	hi := e.Lookup(99)
	for i := 0; i < 3; i++ {
		if lo.Data[i] != e.Weight.W[i] {
			t.Error("negative id should clamp to row 0")
		}
		if hi.Data[i] != e.Weight.W[3*3+i] {
			t.Error("large id should clamp to last row")
		}
	}
	// Gradient accumulates into the looked-up row.
	e.Lookup(1)
	g := NewTensor(3)
	g.Data[0], g.Data[1], g.Data[2] = 1, 2, 3
	e.Accumulate(g)
	if e.Weight.G[3] != 1 || e.Weight.G[4] != 2 || e.Weight.G[5] != 3 {
		t.Errorf("grad row = %v", e.Weight.G[3:6])
	}
}

// ---------------------------------------------------------------------------
// Optimizers

// quadraticParams builds a parameter holding 8 scalars with loss
// Σ (w - target)²; gradient = 2(w - target).
func optimizerConverges(t *testing.T, makeOpt func(p *Param) Optimizer) {
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

func TestSGDConverges(t *testing.T) {
	optimizerConverges(t, func(p *Param) Optimizer { return NewSGD([]*Param{p}, 0.05, 0) })
}

func TestSGDMomentumConverges(t *testing.T) {
	optimizerConverges(t, func(p *Param) Optimizer { return NewSGD([]*Param{p}, 0.02, 0.9) })
}

func TestAdamConverges(t *testing.T) {
	optimizerConverges(t, func(p *Param) Optimizer { return NewAdam([]*Param{p}, 0.05) })
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

func TestStepClearsGradients(t *testing.T) {
	p := NewParam("w", 1)
	s := NewSGD([]*Param{p}, 0.1, 0.5)
	p.G[0] = 2
	s.Step()
	if p.G[0] != 0 {
		t.Error("SGD.Step must clear gradients")
	}
	p.G[0] = 3
	s.ZeroGrad()
	if p.G[0] != 0 {
		t.Error("ZeroGrad must clear gradients")
	}
}

// ---------------------------------------------------------------------------
// Properties

func TestIm2colCol2imAdjointProperty(t *testing.T) {
	// ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjoint identity
	// that conv backward relies on.
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
		im2col(cols, x, cin, h, w, k, k/2)
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
