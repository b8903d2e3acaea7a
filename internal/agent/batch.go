package agent

import (
	"fmt"
	"math"
	"time"

	"macroplace/internal/nn"
)

// BatchInput is one ⟨s_p, s_a, t⟩ state for EvaluateBatch.
type BatchInput struct {
	SP, SA []float64
	T      int
}

// trainPass is the state of one training pass: the workspace that
// Forward draws every activation from, not reset until the next
// Forward so Backward can read them, and the tape of those it reads.
type trainPass struct {
	ws *nn.Workspace
	tape
	live bool // a Forward has run since the last Backward
}

// tape records the slices of a batch-1 forward that Backward reads:
// each layer's input, the gated softmax and its mask, the value and t.
type tape struct {
	t         int
	sp, c1    []float32    // conv1's input, bn1's input
	blocks    []nn.ResActs // one per residual block, in tower order
	trunk, cp []float32    // convP's input, bnP's input
	pin       []float32    // fcP's input
	comb, cv  []float32    // convV's input, bnV's input
	hv, v1    []float32    // fc1V's input, fc2V's input
	v2        []float32    // fc3V's input
	sa, probs []float32
	value     float32
}

// EvaluateBatch runs both heads on a batch of states in one pass and
// returns one Output per input, in order.
//
// Unlike Forward it is a pure function of the weights: it draws from
// a pooled workspace and records no tape, so it is safe to call
// concurrently with other EvaluateBatch calls (Forward/Backward must
// still be externally serialized against it only insofar as they
// mutate weights — searches never do). It runs the same forward as
// Forward, and per sample the arithmetic does not depend on the batch
// size, so the outputs are bit-identical to evaluating each state
// alone; the whole batch flows through single MatMul calls big enough
// to fan out across the nn package's worker pool.
func (a *Agent) EvaluateBatch(in []BatchInput) []Output {
	if len(in) == 0 {
		return nil
	}
	out := make([]Output, len(in))
	a.EvaluateBatchInto(in, out)
	return out
}

// EvaluateBatchInto is EvaluateBatch writing into a caller-supplied
// output slice (len(out) must equal len(in)): the batcher's reusable-
// buffer entry point. Only the per-sample Probs slices are freshly
// allocated — they outlive the call by contract.
func (a *Agent) EvaluateBatchInto(in []BatchInput, out []Output) {
	batch := len(in)
	if batch == 0 {
		return
	}
	if len(out) != batch {
		panic(fmt.Sprintf("agent: EvaluateBatchInto got %d outputs for %d inputs", len(out), batch))
	}
	t0 := time.Now()
	ws, ok := a.infPool.Get().(*nn.Workspace)
	if !ok {
		ws = &nn.Workspace{}
	}
	ws.Reset()
	a.forward(ws, in, out, nil)
	a.infPool.Put(ws)
	obsInferLatency.Observe(time.Since(t0).Seconds())
}

// forward runs both heads on a batch of states, drawing every buffer
// from ws, and writes one Output per input. A non-nil tp (Forward's
// training pass, always at batch 1) receives the slices Backward
// reads.
func (a *Agent) forward(ws *nn.Workspace, in []BatchInput, out []Output, tp *tape) {
	batch := len(in)
	z := a.Cfg.Zeta
	n := z * z
	for i := range in {
		if len(in[i].SP) != n || len(in[i].SA) != n {
			panic(fmt.Sprintf("agent: batch state %d length %d/%d, want %d",
				i, len(in[i].SP), len(in[i].SA), n))
		}
	}

	// s_p as the single input channel, channel-major batch layout.
	sp := ws.Take(batch * n)
	for b := range in {
		dst := sp[b*n : (b+1)*n]
		for i, v := range in[b].SP {
			dst[i] = float32(v)
		}
	}

	c1 := a.conv1.Forward(ws, sp, batch, z, z)
	h := a.bn1.Forward(ws, c1, batch, n, true)
	for i, rb := range a.tower {
		var acts *nn.ResActs
		if tp != nil {
			acts = &tp.blocks[i]
		}
		h = rb.Forward(ws, h, batch, z, z, acts)
	}
	trunk := h // [Channels, batch, n]

	// Policy head.
	cp := a.convP.Forward(ws, trunk, batch, z, z)
	hp := a.bnP.Forward(ws, cp, batch, n, true)
	pin := ws.Take(2 * n)
	logits := ws.Take(n)
	saF := ws.Take(n)
	for b := range in {
		// Gather sample b out of the channel-major layout: channel 0
		// then channel 1.
		copy(pin[:n], hp[b*n:(b+1)*n])
		copy(pin[n:], hp[(batch+b)*n:(batch+b+1)*n])
		a.fcP.ApplyInto(logits, pin, false)
		for i, v := range in[b].SA {
			saF[i] = float32(v)
		}
		out[b].Probs = nn.MaskedSoftmax(nil, logits, saF)
	}

	// Value head: concat [trunk, s_p, posEmb(t)] channels per sample.
	c := a.Cfg.Channels
	comb := ws.Take((c + 2) * batch * n)
	copy(comb[:c*batch*n], trunk)
	copy(comb[c*batch*n:(c+1)*batch*n], sp)
	for b := range in {
		copy(comb[(c+1)*batch*n+b*n:], a.posEmb.At(in[b].T))
	}
	cv := a.convV.Forward(ws, comb, batch, z, z)
	hv := a.bnV.Forward(ws, cv, batch, n, true)
	v1 := ws.Take(16)
	v2 := ws.Take(n)
	v3 := ws.Take(1)
	for b := range in {
		a.fc1V.ApplyInto(v1, hv[b*n:(b+1)*n], true)
		a.fc2V.ApplyInto(v2, v1, true)
		a.fc3V.ApplyInto(v3, v2, false)
		val := v3[0]
		if math.IsNaN(float64(val)) {
			val = 0
		}
		out[b].Value = val
	}

	if tp != nil {
		*tp = tape{
			t: in[0].T, sp: sp, c1: c1, blocks: tp.blocks,
			trunk: trunk, cp: cp, pin: pin,
			comb: comb, cv: cv, hv: hv, v1: v1, v2: v2,
			sa: saF, probs: out[0].Probs, value: out[0].Value,
		}
	}
}

// EvalState runs both heads on a single state through the pure
// inference pass: the counterpart of Forward that records no tape. The
// result is bit-identical to Forward's and — warm pooled workspace
// aside — allocates only the returned Probs slice. Safe for concurrent
// use.
func (a *Agent) EvalState(sp, sa []float64, t int) Output {
	in := [1]BatchInput{{SP: sp, SA: sa, T: t}}
	var out [1]Output
	a.EvaluateBatchInto(in[:], out[:])
	return out[0]
}
