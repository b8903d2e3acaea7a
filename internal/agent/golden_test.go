package agent

import (
	"math"
	"testing"
)

// goldenStates are fixed ⟨s_p, s_a, t⟩ states over a ζ=16 grid: the
// empty canvas every episode starts from (its constant feature maps
// normalise to exact zeros), a half-filled one, and a dense one with
// masked grids.
func goldenStates() []BatchInput {
	const n = 16 * 16
	var in []BatchInput
	for s := 0; s < 3; s++ {
		sp := make([]float64, n)
		sa := make([]float64, n)
		for i := range sp {
			switch s {
			case 1:
				if i%2 == 0 {
					sp[i] = float64(i%7) / 7
				}
			case 2:
				sp[i] = float64((i*5+3)%11) / 11
			}
			sa[i] = float64((i*3+s)%4) / 3
		}
		in = append(in, BatchInput{SP: sp, SA: sa, T: 2 * s})
	}
	return in
}

const fnvOffset = 14695981039346656037

// fnvAdd folds the bits of v into the FNV-1a hash h.
func fnvAdd(h uint64, v float32) uint64 {
	return (h ^ uint64(math.Float32bits(v))) * 1099511628211
}

// outputsHash is FNV-1a over the float32 bits of every probability
// and the value of each output, in order.
func outputsHash(outs []Output) uint64 {
	h := uint64(fnvOffset)
	for _, o := range outs {
		for _, p := range o.Probs {
			h = fnvAdd(h, p)
		}
		h = fnvAdd(h, o.Value)
	}
	return h
}

// forwardGolden is outputsHash of goldenStates under goldenAgent,
// recorded with the per-sample layer forwards this package once had.
// It pins the training Forward and the inference EvalState to that
// reference bit for bit.
const forwardGolden uint64 = 0x2ab14d7fc61ff35f

func goldenAgent() *Agent {
	return New(Config{Zeta: 16, Channels: 16, ResBlocks: 2, MaxSteps: 8, Seed: 11})
}

// TestForwardGoldenFingerprint checks Forward and EvalState against the
// recorded reference on the real training shapes (16 channels at
// ζ=16).
func TestForwardGoldenFingerprint(t *testing.T) {
	a := goldenAgent()
	in := goldenStates()
	fwd := make([]Output, len(in))
	eval := make([]Output, len(in))
	for i, s := range in {
		fwd[i] = a.Forward(s.SP, s.SA, s.T)
		eval[i] = a.EvalState(s.SP, s.SA, s.T)
	}
	if h := outputsHash(fwd); h != forwardGolden {
		t.Errorf("Forward hash %#x, want %#x", h, forwardGolden)
	}
	if h := outputsHash(eval); h != forwardGolden {
		t.Errorf("EvalState hash %#x, want %#x", h, forwardGolden)
	}
}

// backwardGolden is FNV-1a over the float32 bits of every gradient
// after one Forward+Backward per golden state, recorded alongside
// forwardGolden.
const backwardGolden uint64 = 0xfd0eb91bda83f510

// TestBackwardGoldenFingerprint pins the accumulated gradients of the
// golden states bit for bit, the empty canvas (exact-zero
// pre-activations at every ReLU after a BatchNorm) included.
func TestBackwardGoldenFingerprint(t *testing.T) {
	a := goldenAgent()
	for i, s := range goldenStates() {
		a.Forward(s.SP, s.SA, s.T)
		a.Backward(17*i+3, 0.5-float32(i)*0.4, 0.25, 0.01)
	}
	h := uint64(fnvOffset)
	for _, p := range a.Params() {
		for _, g := range p.G {
			h = fnvAdd(h, g)
		}
	}
	if h != backwardGolden {
		t.Errorf("gradient hash %#x, want %#x", h, backwardGolden)
	}
}
