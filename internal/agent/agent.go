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

// Agent is the Actor–Critic network. It is not safe for concurrent
// use; clone per goroutine if needed.
type Agent struct {
	Cfg Config

	// trunk
	conv1 *nn.Conv2D
	bn1   *nn.BatchNorm2D
	act1  *nn.ReLU
	tower []*nn.ResBlock

	// policy head
	convP *nn.Conv2D
	bnP   *nn.BatchNorm2D
	actP  *nn.ReLU
	fcP   *nn.Linear

	// value head
	posEmb *nn.Embedding
	convV  *nn.Conv2D
	bnV    *nn.BatchNorm2D
	actV   *nn.ReLU
	fc1V   *nn.Linear
	act1V  *nn.ReLU
	fc2V   *nn.Linear
	act2V  *nn.ReLU
	fc3V   *nn.Linear

	params []*nn.Param

	// infPool recycles the inference workspaces of the pure batched
	// path (see batch.go); the zero value is ready to use.
	infPool sync.Pool

	// forward caches for Backward
	lastSA     []float32
	lastProbs  []float32
	lastVal    float32
	haveCaches bool
}

// New builds an agent with freshly initialised weights.
func New(cfg Config) *Agent {
	cfg = cfg.normalize()
	r := rng.New(cfg.Seed).Split("agent")
	z, c := cfg.Zeta, cfg.Channels
	a := &Agent{Cfg: cfg}
	a.conv1 = nn.NewConv2D("conv1", 1, c, 3, r)
	a.bn1 = nn.NewBatchNorm2D("bn1", c)
	a.act1 = nn.NewReLU()
	for i := 0; i < cfg.ResBlocks; i++ {
		a.tower = append(a.tower, nn.NewResBlock(fmt.Sprintf("res%d", i), c, r))
	}
	a.convP = nn.NewConv2D("convP", c, 2, 1, r)
	a.bnP = nn.NewBatchNorm2D("bnP", 2)
	a.actP = nn.NewReLU()
	a.fcP = nn.NewLinear("fcP", 2*z*z, z*z, r)

	a.posEmb = nn.NewEmbedding("pos", cfg.MaxSteps, z*z, r)
	a.convV = nn.NewConv2D("convV", c+2, 1, 1, r)
	a.bnV = nn.NewBatchNorm2D("bnV", 1)
	a.actV = nn.NewReLU()
	a.fc1V = nn.NewLinear("fc1V", z*z, 16, r)
	a.act1V = nn.NewReLU()
	a.fc2V = nn.NewLinear("fc2V", 16, z*z, r)
	a.act2V = nn.NewReLU()
	a.fc3V = nn.NewLinear("fc3V", z*z, 1, r)

	for _, l := range a.layers() {
		a.params = append(a.params, l.Params()...)
	}
	a.params = append(a.params, a.posEmb.Params()...)
	return a
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

func (a *Agent) layers() []nn.Layer {
	ls := []nn.Layer{a.conv1, a.bn1, a.act1}
	for _, rb := range a.tower {
		ls = append(ls, rb)
	}
	ls = append(ls, a.convP, a.bnP, a.actP, a.fcP,
		a.convV, a.bnV, a.actV, a.fc1V, a.act1V, a.fc2V, a.act2V, a.fc3V)
	return ls
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

// ReleaseTrainingState drops the gradient buffers and the
// convolutions' backward caches, which a trained agent that only runs
// inference no longer needs. Call it between updates, when the
// gradients are zero; the next Backward allocates zeroed gradients
// again, so releasing is invisible to later training.
func (a *Agent) ReleaseTrainingState() {
	for _, p := range a.params {
		p.G = nil
	}
	a.conv1.ReleaseCache()
	for _, rb := range a.tower {
		rb.Conv1.ReleaseCache()
		rb.Conv2.ReleaseCache()
	}
	a.convP.ReleaseCache()
	a.convV.ReleaseCache()
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
func (a *Agent) Forward(sp, sa []float64, t int) Output {
	z := a.Cfg.Zeta
	n := z * z
	if len(sp) != n || len(sa) != n {
		panic(fmt.Sprintf("agent: state length %d/%d, want %d", len(sp), len(sa), n))
	}
	spT := nn.NewTensor(1, z, z)
	for i, v := range sp {
		spT.Data[i] = float32(v)
	}
	saF := make([]float32, n)
	for i, v := range sa {
		saF[i] = float32(v)
	}

	h := a.conv1.Forward(spT)
	h = a.bn1.Forward(h)
	h = a.act1.Forward(h)
	for _, rb := range a.tower {
		h = rb.Forward(h)
	}
	trunk := h

	// Policy head.
	hp := a.convP.Forward(trunk)
	hp = a.bnP.Forward(hp)
	hp = a.actP.Forward(hp)
	pFlat := nn.FromSlice(hp.Data, hp.Len())
	logits := a.fcP.Forward(pFlat)
	probs := nn.MaskedSoftmax(nil, logits.Data, saF)

	// Value head: concat [trunk, s_p, posEmb(t)] channels.
	pos := a.posEmb.Lookup(t)
	comb := nn.NewTensor(a.Cfg.Channels+2, z, z)
	copy(comb.Data, trunk.Data)
	copy(comb.Data[a.Cfg.Channels*n:], spT.Data)
	copy(comb.Data[(a.Cfg.Channels+1)*n:], pos.Data)
	hv := a.convV.Forward(comb)
	hv = a.bnV.Forward(hv)
	hv = a.actV.Forward(hv)
	vFlat := nn.FromSlice(hv.Data, hv.Len())
	v := a.fc1V.Forward(vFlat)
	v = a.act1V.Forward(v)
	v = a.fc2V.Forward(v)
	v = a.act2V.Forward(v)
	v = a.fc3V.Forward(v)

	val := v.Data[0]
	if math.IsNaN(float64(val)) {
		val = 0
	}
	a.lastSA = saF
	a.lastProbs = probs
	a.lastVal = val
	a.haveCaches = true
	_ = pFlat
	_ = vFlat
	return Output{Probs: probs, Value: val}
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
	if !a.haveCaches {
		panic("agent: Backward without a preceding Forward")
	}
	a.haveCaches = false
	for _, p := range a.params { // restore gradients after ReleaseTrainingState
		if p.G == nil {
			p.G = make([]float32, len(p.W))
		}
	}
	z := a.Cfg.Zeta
	n := z * z

	// --- Policy head gradient w.r.t. logits.
	var entropy float32
	if entropyCoef > 0 {
		for _, p := range a.lastProbs {
			if p > 1e-12 {
				entropy -= p * logf(p)
			}
		}
	}
	dLogits := nn.NewTensor(n)
	for i := 0; i < n; i++ {
		if a.lastSA[i] <= 0 {
			continue
		}
		p := a.lastProbs[i]
		g := advantage * p
		if i == action {
			g -= advantage
		}
		if entropyCoef > 0 && p > 1e-12 {
			// Maximizing H adds −c·dH/dlogit_i = c·p_i(log p_i + H).
			g += entropyCoef * p * (logf(p) + entropy)
		}
		dLogits.Data[i] = g
	}
	dpFlat := a.fcP.Backward(dLogits)
	dhp := nn.FromSlice(dpFlat.Data, 2, z, z)
	dhp = a.actP.Backward(dhp)
	dhp = a.bnP.Backward(dhp)
	dTrunkP := a.convP.Backward(dhp)

	// --- Value head gradient: d/dv (R − v)² = 2(v − R).
	dv := nn.NewTensor(1)
	dv.Data[0] = 2 * (a.lastVal - target)
	dvv := a.fc3V.Backward(dv)
	dvv = a.act2V.Backward(dvv)
	dvv = a.fc2V.Backward(dvv)
	dvv = a.act1V.Backward(dvv)
	dvv = a.fc1V.Backward(dvv)
	dhv := nn.FromSlice(dvv.Data, 1, z, z)
	dhv = a.actV.Backward(dhv)
	dhv = a.bnV.Backward(dhv)
	dComb := a.convV.Backward(dhv)

	// Split combined gradient: trunk channels, s_p (input, no grad),
	// position embedding.
	dTrunkV := nn.NewTensor(a.Cfg.Channels, z, z)
	copy(dTrunkV.Data, dComb.Data[:a.Cfg.Channels*n])
	dPos := nn.FromSlice(dComb.Data[(a.Cfg.Channels+1)*n:], n)
	a.posEmb.Accumulate(dPos)

	// --- Trunk: sum of both heads' gradients.
	dTrunk := dTrunkP
	dTrunk.AddInPlace(dTrunkV)
	for i := len(a.tower) - 1; i >= 0; i-- {
		dTrunk = a.tower[i].Backward(dTrunk)
	}
	dTrunk = a.act1.Backward(dTrunk)
	dTrunk = a.bn1.Backward(dTrunk)
	a.conv1.Backward(dTrunk)
}

func logf(x float32) float32 { return float32(math.Log(float64(x))) }
