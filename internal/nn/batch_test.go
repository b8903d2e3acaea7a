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
// into a batch-1 [C, hw] map.
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
// convolution must equal the batch-1 Forward on that sample alone,
// bit for bit (the parallel-MCTS determinism contract).
func TestConv2DForwardBatchMatchesSequential(t *testing.T) {
	const cin, cout, k, h, w, batch = 3, 5, 3, 6, 6, 4
	hw := h * w
	conv := NewConv2D("c", cin, cout, k, rng.New(1))
	xb := make([]float32, cin*batch*hw)
	fillPattern(xb, 3)

	got := conv.Forward(nil, xb, batch, h, w)
	for b := 0; b < batch; b++ {
		want := conv.Forward(nil, gatherSample(xb, cin, batch, hw, b), 1, h, w)
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

	got := bn.Forward(nil, xb, batch, hw, false)
	fused := bn.Forward(nil, xb, batch, hw, true)
	// The fused ReLU is max(0, ·) of the identical normalised value.
	for i, v := range got {
		if want := max(v, 0); fused[i] != want {
			t.Fatalf("elem %d: fused ReLU %v != max(0, %v)", i, fused[i], v)
		}
	}

	for b := 0; b < batch; b++ {
		want := bn.Forward(nil, gatherSample(xb, c, batch, hw, b), 1, hw, false)
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
	got := rb.Forward(nil, xb, batch, h, w, nil)
	for b := 0; b < batch; b++ {
		want := rb.Forward(nil, gatherSample(xb, c, batch, hw, b), 1, h, w, nil)
		gb := gatherSample(got, c, batch, hw, b)
		for i := range want {
			if gb[i] != want[i] {
				t.Fatalf("sample %d elem %d: batch %v != seq %v", b, i, gb[i], want[i])
			}
		}
	}
}

// TestLinearApplyMatchesForward: ApplyInto is b + Σ W·x summed in
// input order, and its fused ReLU is max(0, ·) of that sum.
func TestLinearApplyMatchesForward(t *testing.T) {
	const in, out = 7, 3
	l := NewLinear("l", in, out, rng.New(3))
	fillPattern(l.Bias.W, 2)
	x := make([]float32, in)
	fillPattern(x, 9)
	want := make([]float32, out)
	for o := range want {
		s := l.Bias.W[o]
		for i, v := range x {
			s += l.Weight.W[o*in+i] * v
		}
		want[o] = s
	}
	got := l.ApplyInto(make([]float32, out), x, false)
	fused := l.ApplyInto(make([]float32, out), x, true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: ApplyInto %v != %v", i, got[i], want[i])
		}
		if fused[i] != max(want[i], 0) {
			t.Fatalf("elem %d: fused ReLU %v != max(0, %v)", i, fused[i], want[i])
		}
	}
}

// TestEmbeddingAtClampsAndMatchesLookup: At returns the table row of
// the id, with ids below 0 reading row 0 and ids past the end the last
// row.
func TestEmbeddingAtClampsAndMatchesLookup(t *testing.T) {
	e := NewEmbedding("e", 4, 6, rng.New(4))
	for _, tc := range []struct{ id, row int }{{-2, 0}, {0, 0}, {3, 3}, {9, 3}} {
		want := e.Weight.W[tc.row*6 : (tc.row+1)*6]
		got := e.At(tc.id)
		if len(got) != len(want) {
			t.Fatalf("id %d: len %d, want %d", tc.id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("id %d elem %d: At %v != row %d's %v", tc.id, i, got[i], tc.row, want[i])
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
