// Package agent implements the Actor–Critic network of the paper's
// Fig. 2 and Table I: a shared convolution trunk with a residual
// tower, a policy head whose logits are gated by the availability map
// s_a, and a value head that combines the trunk output with s_p and a
// position embedding of the sequence number t.
//
// The architecture is configurable. Paper() returns the exact shape of
// Table I (ζ=16, 128 channels, 10 residual blocks); experiments
// default to a narrower tower so CPU-only training finishes in
// reasonable time — the substitution is recorded in DESIGN.md.
package agent

import (
	"fmt"
	"math"
	"sync"

	"macroplace/internal/nn"
	"macroplace/internal/rng"
)

// Config describes the network shape.
type Config struct {
	// Zeta is the grid resolution; actions and maps are Zeta×Zeta.
	Zeta int
	// Channels is the trunk width (paper: 128).
	Channels int
	// ResBlocks is the residual-tower depth (paper: 10).
	ResBlocks int
	// MaxSteps bounds the sequence number t for the position
	// embedding table.
	MaxSteps int
	// Seed drives weight initialisation.
	Seed int64
}

// Paper returns the exact Table I configuration.
func Paper(maxSteps int, seed int64) Config {
	return Config{Zeta: 16, Channels: 128, ResBlocks: 10, MaxSteps: maxSteps, Seed: seed}
}

// Default returns a CPU-friendly configuration that preserves the
// architecture's structure at reduced width/depth.
func Default(zeta, maxSteps int, seed int64) Config {
	return Config{Zeta: zeta, Channels: 24, ResBlocks: 3, MaxSteps: maxSteps, Seed: seed}
}

func (c Config) normalize() Config {
	if c.Zeta <= 0 {
		c.Zeta = 16
	}
	if c.Channels <= 0 {
		c.Channels = 24
	}
	if c.ResBlocks <= 0 {
		c.ResBlocks = 3
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 64
	}
	return c
}

// Output is one inference result: the action distribution p_θ,t over
// the ζ² grids and the value estimate v_θ,t.
type Output struct {
	Probs []float32
	Value float32
}

// Agent is the Actor–Critic network. Forward and Backward are not
// safe for concurrent use; GradView gives each goroutine its own
// training pass over one set of weights. EvaluateBatch, EvaluateBatchInto
// and EvalState are safe for concurrent use.
type Agent struct {
	Cfg Config

	// trunk
	conv1 *nn.Conv2D
	bn1   *nn.BatchNorm2D
	tower []*nn.ResBlock

	// policy head
	convP *nn.Conv2D
	bnP   *nn.BatchNorm2D
	fcP   *nn.Linear

	// value head
	posEmb *nn.Embedding
	convV  *nn.Conv2D
	bnV    *nn.BatchNorm2D
	fc1V   *nn.Linear
	fc2V   *nn.Linear
	fc3V   *nn.Linear

	params []*nn.Param

	// infPool recycles the workspaces of inference passes (see
	// batch.go); the zero value is ready to use.
	infPool sync.Pool

	// train is the state of the training pass: Forward records it and
	// Backward consumes it. Nil until the first Forward and after
	// ReleaseTrainingState.
	train *trainPass
}

// New builds an agent with freshly initialised weights.
func New(cfg Config) *Agent {
	cfg = cfg.normalize()
	r := rng.New(cfg.Seed).Split("agent")
	z, c := cfg.Zeta, cfg.Channels
	a := &Agent{Cfg: cfg}
	a.conv1 = nn.NewConv2D("conv1", 1, c, 3, r)
	a.bn1 = nn.NewBatchNorm2D("bn1", c)
	for i := 0; i < cfg.ResBlocks; i++ {
		a.tower = append(a.tower, nn.NewResBlock(fmt.Sprintf("res%d", i), c, r))
	}
	a.convP = nn.NewConv2D("convP", c, 2, 1, r)
	a.bnP = nn.NewBatchNorm2D("bnP", 2)
	a.fcP = nn.NewLinear("fcP", 2*z*z, z*z, r)

	a.posEmb = nn.NewEmbedding("pos", cfg.MaxSteps, z*z, r)
	a.convV = nn.NewConv2D("convV", c+2, 1, 1, r)
	a.bnV = nn.NewBatchNorm2D("bnV", 1)
	a.fc1V = nn.NewLinear("fc1V", z*z, 16, r)
	a.fc2V = nn.NewLinear("fc2V", 16, z*z, r)
	a.fc3V = nn.NewLinear("fc3V", z*z, 1, r)

	a.collectParams()
	return a
}

// collectParams lists the layers' parameters in a.params.
// Checkpoints, Fingerprint and AddGradsFrom depend on this order.
func (a *Agent) collectParams() {
	a.params = append(a.conv1.Params(), a.bn1.Params()...)
	for _, rb := range a.tower {
		a.params = append(a.params, rb.Params()...)
	}
	for _, ps := range [][]*nn.Param{
		a.convP.Params(), a.bnP.Params(), a.fcP.Params(),
		a.convV.Params(), a.bnV.Params(), a.fc1V.Params(), a.fc2V.Params(), a.fc3V.Params(),
		a.posEmb.Params(),
	} {
		a.params = append(a.params, ps...)
	}
}

// Fingerprint hashes the agent's full served identity — its shape and
// every parameter's float32 bits — with FNV-1a. Nothing else affects
// an evaluation, so two agents share a fingerprint exactly when their
// evaluations are interchangeable, and inference never changes it.
// CachedEvaluator salts its keys with it; the ECO warm store also uses
// it to detect that a stored agent was retrained.
func (a *Agent) Fingerprint() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	word := func(w uint64) {
		h = (h ^ w) * fnvPrime
	}
	word(uint64(a.Cfg.Zeta))
	word(uint64(a.Cfg.Channels))
	word(uint64(a.Cfg.ResBlocks))
	word(uint64(a.Cfg.MaxSteps))
	for _, p := range a.params {
		word(uint64(len(p.W)))
		for _, v := range p.W {
			word(uint64(math.Float32bits(v)))
		}
	}
	return h
}

// Params returns every learnable parameter.
func (a *Agent) Params() []*nn.Param { return a.params }

// Clone returns an agent with the same configuration and a deep copy
// of the current weights (gradients are not copied).
func (a *Agent) Clone() *Agent {
	cp := New(a.Cfg)
	cp.CopyWeightsFrom(a)
	return cp
}

// CopyWeightsFrom overwrites this agent's weights with other's. The
// two agents must share a configuration.
func (a *Agent) CopyWeightsFrom(other *Agent) {
	if len(a.params) != len(other.params) {
		panic("agent: CopyWeightsFrom across different configurations")
	}
	for i, p := range a.params {
		copy(p.W, other.params[i].W)
	}
}

// ReleaseTrainingState drops the gradient buffers and the training
// pass (its workspace and tape), which a trained agent that only runs
// inference no longer needs. Call it between updates, when the
// gradients are zero; the next Backward allocates zeroed gradients
// again, so releasing is invisible to later training. A Backward whose
// Forward came before the release panics.
func (a *Agent) ReleaseTrainingState() {
	for _, p := range a.params {
		p.G = nil
	}
	a.train = nil
}

// NumParams returns the total scalar parameter count.
func (a *Agent) NumParams() int {
	n := 0
	for _, p := range a.params {
		n += len(p.W)
	}
	return n
}

// Forward runs both heads on state ⟨s_p, s_a, t⟩. sp and sa must have
// length ζ². The returned distribution is the availability-gated
// softmax: p_i ∝ s_a(i)·exp(logit_i), which zeroes unavailable grids
// and biases toward roomier ones (the paper multiplies the policy
// features by s_a before its softmax; the gated form keeps infeasible
// grids at exactly zero probability).
//
// Forward is a training pass: it runs the inference forward at batch
// 1 on the agent's training workspace and records the tape that the
// next Backward reads. Its outputs are bit-identical to EvalState's.
func (a *Agent) Forward(sp, sa []float64, t int) Output {
	if a.train == nil {
		a.train = &trainPass{ws: &nn.Workspace{}, tape: tape{blocks: make([]nn.ResActs, len(a.tower))}}
	}
	tr := a.train
	tr.ws.Reset()
	tr.live = false
	in := [1]BatchInput{{SP: sp, SA: sa, T: t}}
	var out [1]Output
	a.forward(tr.ws, in[:], out[:], &tr.tape)
	tr.live = true
	return out[0]
}

// Backward accumulates gradients for the combined Actor–Critic loss of
// Eqs. (5)–(8) for the state of the immediately preceding Forward
// call:
//
//	L = −log p(action)·advantage  +  (R − v)²  −  entropyCoef·H(p)
//
// action is the taken action, advantage is A_t = R_t − v_θ,t (treated
// as a constant, per Eq. 5), and target is R_t for the value head.
func (a *Agent) Backward(action int, advantage, target float32, entropyCoef float32) {
	tr := a.train
	if tr == nil || !tr.live {
		panic("agent: Backward without a preceding Forward")
	}
	tr.live = false
	a.ensureGrads()
	ws, tp := tr.ws, &tr.tape
	z := a.Cfg.Zeta
	n := z * z

	// --- Policy head gradient w.r.t. logits.
	var entropy float32
	if entropyCoef > 0 {
		for _, p := range tp.probs {
			if p > 1e-12 {
				entropy -= p * logf(p)
			}
		}
	}
	dLogits := ws.Take(n)
	clear(dLogits)
	for i := 0; i < n; i++ {
		if tp.sa[i] <= 0 {
			continue
		}
		p := tp.probs[i]
		g := advantage * p
		if i == action {
			g -= advantage
		}
		if entropyCoef > 0 && p > 1e-12 {
			// Maximizing H adds −c·dH/dlogit_i = c·p_i(log p_i + H).
			g += entropyCoef * p * (logf(p) + entropy)
		}
		dLogits[i] = g
	}
	d := a.fcP.Backward(ws, tp.pin, dLogits, false)
	d = a.bnP.Backward(ws, tp.cp, d, n, true)
	dTrunk := a.convP.Backward(ws, tp.trunk, d, z, z)

	// --- Value head gradient: d/dv (R − v)² = 2(v − R).
	dv := ws.Take(1)
	dv[0] = 2 * (tp.value - target)
	d = a.fc3V.Backward(ws, tp.v2, dv, false)
	d = a.fc2V.Backward(ws, tp.v1, d, true)
	d = a.fc1V.Backward(ws, tp.hv, d, true)
	d = a.bnV.Backward(ws, tp.cv, d, n, true)
	dComb := a.convV.Backward(ws, tp.comb, d, z, z)

	// Split the combined gradient: trunk channels, s_p (input, no
	// grad), position embedding.
	c := a.Cfg.Channels
	a.posEmb.Backward(tp.t, dComb[(c+1)*n:])

	// --- Trunk: sum of both heads' gradients.
	for i, v := range dComb[:c*n] {
		dTrunk[i] += v
	}
	for i := len(a.tower) - 1; i >= 0; i-- {
		dTrunk = a.tower[i].Backward(ws, &tp.blocks[i], dTrunk, z, z)
	}
	d = a.bn1.Backward(ws, tp.c1, dTrunk, n, true)
	a.conv1.Backward(ws, tp.sp, d, z, z)
}

// ensureGrads restores zeroed gradients after ReleaseTrainingState.
func (a *Agent) ensureGrads() {
	for _, p := range a.params {
		if p.G == nil {
			p.G = make([]float32, len(p.W))
		}
	}
}

func logf(x float32) float32 { return float32(math.Log(float64(x))) }
