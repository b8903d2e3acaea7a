package nn

import (
	"testing"

	"macroplace/internal/rng"
)

// fillPattern writes a deterministic, sign-varying pattern.
func fillPattern(x []float32, seed int) {
	for i := range x {
		x[i] = float32((i*7+seed*13)%11) - 5.0
	}
}

// gatherSample extracts sample b of a channel-major [C, B, hw] batch
// into the sequential [C, hw] layout.
func gatherSample(x []float32, c, batch, hw, b int) []float32 {
	out := make([]float32, c*hw)
	for ci := 0; ci < c; ci++ {
		copy(out[ci*hw:(ci+1)*hw], x[(ci*batch+b)*hw:(ci*batch+b)*hw+hw])
	}
	return out
}

// scatterSample places a [C, hw] sample at slot b of a channel-major
// batch.
func scatterSample(dst, x []float32, c, batch, hw, b int) {
	for ci := 0; ci < c; ci++ {
		copy(dst[(ci*batch+b)*hw:(ci*batch+b)*hw+hw], x[ci*hw:(ci+1)*hw])
	}
}

// TestConv2DForwardBatchMatchesSequential: every sample of a batched
// convolution must equal the sequential Forward on that sample alone,
// bit for bit (the parallel-MCTS determinism contract).
func TestConv2DForwardBatchMatchesSequential(t *testing.T) {
	const cin, cout, k, h, w, batch = 3, 5, 3, 6, 6, 4
	hw := h * w
	conv := NewConv2D("c", cin, cout, k, rng.New(1))
	xb := make([]float32, cin*batch*hw)
	fillPattern(xb, 3)

	got := conv.ForwardBatchWS(nil, xb, batch, h, w, false)
	for b := 0; b < batch; b++ {
		xs := gatherSample(xb, cin, batch, hw, b)
		want := conv.Forward(FromSlice(xs, cin, h, w)).Data
		gb := gatherSample(got, cout, batch, hw, b)
		for i := range want {
			if gb[i] != want[i] {
				t.Fatalf("sample %d elem %d: batch %v != seq %v", b, i, gb[i], want[i])
			}
		}
	}
}

func TestBatchNormForwardBatchMatchesSequential(t *testing.T) {
	const c, hw, batch = 4, 25, 3
	bn := NewBatchNorm2D("b", c)
	// Perturb gamma/beta so the affine part is exercised.
	for i := range bn.Gamma.W {
		bn.Gamma.W[i] = 1.5 + float32(i)
		bn.Beta.W[i] = -0.25 * float32(i)
	}
	xb := make([]float32, c*batch*hw)
	fillPattern(xb, 5)

	got := bn.ForwardBatchWS(nil, xb, batch, hw, false)
	fused := bn.ForwardBatchWS(nil, xb, batch, hw, true)
	// The fused ReLU is max(0, ·) of the identical normalised value.
	for i, v := range got {
		if want := max(v, 0); fused[i] != want {
			t.Fatalf("elem %d: fused ReLU %v != max(0, %v)", i, fused[i], v)
		}
	}

	for b := 0; b < batch; b++ {
		xs := gatherSample(xb, c, batch, hw, b)
		want := bn.Forward(FromSlice(xs, c, 5, 5)).Data
		gb := gatherSample(got, c, batch, hw, b)
		for i := range want {
			if gb[i] != want[i] {
				t.Fatalf("sample %d elem %d: batch %v != seq %v", b, i, gb[i], want[i])
			}
		}
	}
}

func TestResBlockForwardBatchMatchesSequential(t *testing.T) {
	const c, h, w, batch = 4, 5, 5, 3
	hw := h * w
	rb := NewResBlock("r", c, rng.New(2))
	xb := make([]float32, c*batch*hw)
	fillPattern(xb, 7)
	got := rb.ForwardBatchWS(nil, xb, batch, h, w)
	for b := 0; b < batch; b++ {
		xs := gatherSample(xb, c, batch, hw, b)
		want := rb.Forward(FromSlice(xs, c, h, w)).Data
		gb := gatherSample(got, c, batch, hw, b)
		for i := range want {
			if gb[i] != want[i] {
				t.Fatalf("sample %d elem %d: batch %v != seq %v", b, i, gb[i], want[i])
			}
		}
	}
}

func TestLinearApplyMatchesForward(t *testing.T) {
	const in, out = 7, 3
	l := NewLinear("l", in, out, rng.New(3))
	x := make([]float32, in)
	fillPattern(x, 9)
	want := l.Forward(FromSlice(x, in)).Data
	got := l.ApplyInto(make([]float32, out), x, false)
	fused := l.ApplyInto(make([]float32, out), x, true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: ApplyInto %v != Forward %v", i, got[i], want[i])
		}
		if fused[i] != max(want[i], 0) {
			t.Fatalf("elem %d: fused ReLU %v != max(0, %v)", i, fused[i], want[i])
		}
	}
}

func TestEmbeddingAtClampsAndMatchesLookup(t *testing.T) {
	e := NewEmbedding("e", 4, 6, rng.New(4))
	for _, id := range []int{-2, 0, 3, 9} {
		want := e.Lookup(id).Data
		got := e.At(id)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("id %d elem %d: At %v != Lookup %v", id, i, got[i], want[i])
			}
		}
	}
}

// TestScatterGatherRoundTrip guards the layout helpers used above.
func TestScatterGatherRoundTrip(t *testing.T) {
	const c, hw, batch = 3, 4, 2
	x := make([]float32, c*hw)
	fillPattern(x, 1)
	buf := make([]float32, c*batch*hw)
	scatterSample(buf, x, c, batch, hw, 1)
	got := gatherSample(buf, c, batch, hw, 1)
	for i := range x {
		if got[i] != x[i] {
			t.Fatal("scatter/gather mismatch")
		}
	}
}
