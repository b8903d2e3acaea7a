// Package nn is a small, dependency-free neural-network library built
// for the agent of Fig. 2 / Table I of the paper: im2col Conv2D,
// spatial BatchNorm, Linear, embeddings, residual blocks, fused ReLU
// epilogues, hand-wired backpropagation and the Adam optimizer.
//
// A layer is its weights plus pure functions over flat float32
// slices; there is no tensor type and no autograd graph. Every layer
// has one forward, used by inference and training alike, and a
// Backward that takes the forward's input slice and d(out), returns
// d(in) and accumulates into the layer's Param.G. Backward keeps
// nothing from the forward: it recomputes what it needs (the conv's
// im2col columns, BatchNorm's mean, 1/σ and x̂, the sign of a fused
// ReLU's pre-activation) with the same float32 operations in the same
// order, so the gradients are those of the exact forward values.
//
// Feature maps are stored channel-major over the batch: element
// (c, b, i) of a [C, B, H*W] map lives at x[(c*B+b)*hw + i]. This
// keeps every per-channel operation (convolution bias, BatchNorm, the
// im2col rows) contiguous and makes a batched convolution a single
// [Cout × Cin·K²] · [Cin·K² × B·H·W] product. Per sample, a forward
// performs the same float32 operations in the same order at any batch
// size, so a batched evaluation is bit-identical to evaluating each
// sample alone (the MCTS determinism tests rely on this). Backward
// runs at batch 1: the Actor–Critic update of the paper accumulates
// gradients over the steps of 30 episodes one step at a time.
// BatchNorm normalises each sample over its spatial extent (H×W),
// which is well-defined for the 16×16 feature maps involved.
//
// Every forward and backward draws its buffers from a Workspace arena
// (see workspace.go). Fused epilogues (the convolution bias, the ReLU
// after BatchNorm and after Linear, the residual add+ReLU) sweep the
// output once and perform the identical float operations in the
// identical order as separate passes would.
package nn

import (
	"math"

	"macroplace/internal/rng"
)

// Param is a learnable parameter with its gradient accumulator. G is
// nil while an agent's training state is released (see
// agent.Agent.ReleaseTrainingState) and comes back zeroed on the next
// Backward.
type Param struct {
	Name string
	W    []float32
	G    []float32
}

// NewParam allocates a parameter of n elements.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float32, n), G: make([]float32, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// InitHe fills p with He-normal values scaled for fanIn, the standard
// initialisation for ReLU networks.
func (p *Param) InitHe(r *rng.RNG, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range p.W {
		p.W[i] = float32(r.NormFloat64()) * std
	}
}

// InitUniform fills p uniformly in [-a, a].
func (p *Param) InitUniform(r *rng.RNG, a float64) {
	for i := range p.W {
		p.W[i] = float32(r.Range(-a, a))
	}
}

// Fill sets every weight to v.
func (p *Param) Fill(v float32) {
	for i := range p.W {
		p.W[i] = v
	}
}
