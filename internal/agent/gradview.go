package agent

import "macroplace/internal/nn"

// GradView returns an agent that reads a's weight slices in place and
// owns zeroed gradient buffers and its own training pass, for
// data-parallel rollouts and updates: no weight is copied, and a
// weight change on a is visible to the view at once.
//
// Views of one agent may run Forward and Backward concurrently while
// nothing writes the agent's weights. AddGradsFrom moves a view's
// gradient into the agent's; calling it once per sample, in sample
// order, makes the summed gradient bit-identical to back-propagating
// every sample on the agent itself (see AddGradsFrom).
func (a *Agent) GradView() *Agent {
	v := &Agent{Cfg: a.Cfg}
	param := func(p *nn.Param) *nn.Param {
		return &nn.Param{Name: p.Name, W: p.W, G: make([]float32, len(p.W))}
	}
	conv := func(c *nn.Conv2D) *nn.Conv2D {
		cp := *c
		cp.Weight, cp.Bias = param(c.Weight), param(c.Bias)
		return &cp
	}
	bn := func(b *nn.BatchNorm2D) *nn.BatchNorm2D {
		cp := *b
		cp.Gamma, cp.Beta = param(b.Gamma), param(b.Beta)
		return &cp
	}
	lin := func(l *nn.Linear) *nn.Linear {
		cp := *l
		cp.Weight, cp.Bias = param(l.Weight), param(l.Bias)
		return &cp
	}
	v.conv1, v.bn1 = conv(a.conv1), bn(a.bn1)
	for _, rb := range a.tower {
		v.tower = append(v.tower, &nn.ResBlock{Conv1: conv(rb.Conv1), BN1: bn(rb.BN1), Conv2: conv(rb.Conv2), BN2: bn(rb.BN2)})
	}
	v.convP, v.bnP, v.fcP = conv(a.convP), bn(a.bnP), lin(a.fcP)
	emb := *a.posEmb
	emb.Weight = param(a.posEmb.Weight)
	v.posEmb = &emb
	v.convV, v.bnV = conv(a.convV), bn(a.bnV)
	v.fc1V, v.fc2V, v.fc3V = lin(a.fc1V), lin(a.fc2V), lin(a.fc3V)
	v.collectParams()
	return v
}

// AddGradsFrom adds v's gradient into a's, element by element, and
// zeroes v's; v is a GradView of a.
//
// Called after every sample, it keeps the sum bit-identical to
// back-propagating that sample on a. Within one sample every gradient
// element receives exactly one add of an already rounded value: the
// weight-gradient product sums from zero and adds once, the bias,
// BatchNorm and Embedding gradients add a finished sum once, and
// Linear adds its product through an explicit float32 conversion, which
// keeps the compiler from fusing it into a multiply-add (Go fuses
// x*y + z on arm64, ppc64le, riscv64 and s390x unless the product is
// converted). So v holds 0 + c, which equals c up to the sign of a
// zero, and adding it to a's element performs the same rounding as
// adding c there. a's gradient starts at +0 and a sum can only become
// −0 from two −0 operands, so it is never −0, and adding either zero
// leaves it unchanged.
func (a *Agent) AddGradsFrom(v *Agent) {
	a.ensureGrads()
	for i, p := range v.params {
		src := p.G
		dst := a.params[i].G[:len(src)]
		j := 0
		for ; j+4 <= len(src); j += 4 { // unrolled: a third faster
			s, d := src[j:j+4:j+4], dst[j:j+4:j+4]
			d[0] += s[0]
			d[1] += s[1]
			d[2] += s[2]
			d[3] += s[3]
		}
		for ; j < len(src); j++ {
			dst[j] += src[j]
		}
		clear(src)
	}
}
