package agent

import (
	"math"
	"testing"
)

// TestGradViewSharesWeightsOwnsGradients: a view reads the agent's
// weight slices in place (a weight change is visible to it at once),
// back-propagates into its own buffers, and AddGradsFrom moves exactly
// those gradients into the agent's and zeroes them.
func TestGradViewSharesWeightsOwnsGradients(t *testing.T) {
	a := goldenAgent()
	v := a.GradView()
	for i, p := range v.Params() {
		ap := a.Params()[i]
		if p.Name != ap.Name || &p.W[0] != &ap.W[0] {
			t.Fatalf("view param %s does not alias the agent's weights", p.Name)
		}
		if ap.G != nil && &p.G[0] == &ap.G[0] {
			t.Fatalf("view param %s shares the agent's gradient", p.Name)
		}
	}

	in := goldenStates()
	s := in[1]
	a.Params()[0].W[3] += 0.25 // visible to the view without a copy
	want := a.EvalState(s.SP, s.SA, s.T)
	got := v.Forward(s.SP, s.SA, s.T)
	if outputsHash([]Output{got}) != outputsHash([]Output{want}) {
		t.Fatal("view forward differs from the agent's after a weight change")
	}

	ref := a.Clone()
	ref.Forward(s.SP, s.SA, s.T)
	ref.Backward(5, 0.3, 0.1, 0.01)
	v.Backward(5, 0.3, 0.1, 0.01)
	for _, p := range a.Params() {
		for _, g := range p.G {
			if g != 0 {
				t.Fatalf("view Backward wrote the agent's gradient %s", p.Name)
			}
		}
	}
	a.AddGradsFrom(v)
	for i, p := range a.Params() {
		for j, g := range p.G {
			if math.Float32bits(g) != math.Float32bits(ref.Params()[i].G[j]) {
				t.Fatalf("added %s.G[%d] = %v, want %v", p.Name, j, g, ref.Params()[i].G[j])
			}
		}
		for _, g := range v.Params()[i].G {
			if g != 0 {
				t.Fatalf("AddGradsFrom left view gradient %s nonzero", p.Name)
			}
		}
	}
}
