package nn

import (
	"math"

	"macroplace/internal/rng"
)

// ---------------------------------------------------------------------------
// Conv2D

// Conv2D is a stride-1, same-padding 2-D convolution over [Cin, H, W]
// feature maps, implemented as im2col + matmul.
type Conv2D struct {
	Cin, Cout, K int
	Pad          int
	Weight       *Param // [Cout][Cin*K*K]
	Bias         *Param // [Cout]
}

// NewConv2D builds a K×K convolution with same padding (pad = K/2).
func NewConv2D(name string, cin, cout, k int, r *rng.RNG) *Conv2D {
	c := &Conv2D{
		Cin: cin, Cout: cout, K: k, Pad: k / 2,
		Weight: NewParam(name+".w", cout*cin*k*k),
		Bias:   NewParam(name+".b", cout),
	}
	c.Weight.InitHe(r, cin*k*k)
	return c
}

// Params returns the kernel and the bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Forward applies the convolution to a batch of [Cin, H, W] feature
// maps in channel-major batch layout and returns the [Cout, B, H*W]
// output drawn from ws. The im2col columns are released back to ws
// once the product has consumed them.
func (c *Conv2D) Forward(ws *Workspace, x []float32, batch, h, w int) []float32 {
	hw := h * w
	if len(x) < c.Cin*batch*hw {
		panic("nn: Conv2D.Forward input too small")
	}
	ck := c.Cin * c.K * c.K
	out := ws.Take(c.Cout * batch * hw)
	mark := ws.Mark()
	cols := ws.Take(ck * batch * hw)
	im2colBatch(cols, x, c.Cin, batch, h, w, c.K, c.Pad)
	MatMulBias(out, c.Weight.W, cols, c.Bias.W, c.Cout, ck, batch*hw, false)
	ws.Release(mark)
	return out
}

// Backward takes one sample's forward input x [Cin, H, W] and d(out)
// dy [Cout, H, W], accumulates dW and db, and returns d(x) drawn from
// ws. It rebuilds the im2col columns of x rather than keeping them,
// and releases them and their gradient back to ws before returning.
func (c *Conv2D) Backward(ws *Workspace, x, dy []float32, h, w int) []float32 {
	ck := c.Cin * c.K * c.K
	hw := h * w
	dx := ws.Take(c.Cin * hw)
	mark := ws.Mark()
	cols := ws.Take(ck * hw)
	im2colBatch(cols, x, c.Cin, 1, h, w, c.K, c.Pad)

	// dW += dy · colsᵀ ; db += Σ dy
	MatMulABTAcc(c.Weight.G, dy, cols, c.Cout, hw, ck)
	for co := 0; co < c.Cout; co++ {
		var s float32
		for _, v := range dy[co*hw : (co+1)*hw] {
			s += v
		}
		c.Bias.G[co] += s
	}

	// dcols = Wᵀ · dy ; dx = col2im(dcols)
	dcols := ws.Take(ck * hw)
	MatMulATB(dcols, c.Weight.W, dy, ck, c.Cout, hw)
	clear(dx)
	col2im(dx, dcols, c.Cin, h, w, c.K, c.Pad)
	ws.Release(mark)
	return dx
}

// im2colBatch lowers a channel-major batch [Cin, B, H*W] into
// cols[Cin*K*K, B*H*W] for stride-1 convolution with the given
// padding: sample b of row r occupies columns [b*hw, (b+1)*hw), so the
// per-sample columns are exactly the ones the batch-1 call produces
// for that sample alone.
func im2colBatch(cols, x []float32, cin, batch, h, w, k, pad int) {
	hw := h * w
	bhw := batch * hw
	row := 0
	for ci := 0; ci < cin; ci++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				// Output columns [lo, hi) read input columns shifted by
				// kx−pad; the others fall in the padding.
				lo, hi := max(0, pad-kx), min(w, w+pad-kx)
				for b := 0; b < batch; b++ {
					xc := x[(ci*batch+b)*hw : (ci*batch+b+1)*hw]
					dst := cols[row*bhw+b*hw : row*bhw+(b+1)*hw]
					for oy := 0; oy < h; oy++ {
						d := dst[oy*w : (oy+1)*w]
						iy := oy + ky - pad
						if iy < 0 || iy >= h || lo >= hi {
							clear(d)
							continue
						}
						clear(d[:lo])
						copy(d[lo:hi], xc[iy*w+lo+kx-pad:])
						clear(d[hi:])
					}
				}
				row++
			}
		}
	}
}

// col2im is the adjoint of im2colBatch at batch 1: it scatters one
// sample's column gradients back into its input gradient.
func col2im(dx, dcols []float32, cin, h, w, k, pad int) {
	hw := h * w
	row := 0
	for ci := 0; ci < cin; ci++ {
		xc := dx[ci*hw : (ci+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := dcols[row*hw : (row+1)*hw]
				row++
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					base := oy * w
					ib := iy * w
					for ox := 0; ox < w; ox++ {
						ix := ox + kx - pad
						if ix >= 0 && ix < w {
							xc[ib+ix] += src[base+ox]
						}
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// BatchNorm2D

// BatchNorm2D normalises each channel of each sample over its spatial
// extent (H×W). Training and inference use the same per-sample
// statistics, so the layer's only state is Gamma and Beta; it keeps no
// running statistics.
type BatchNorm2D struct {
	C   int
	Eps float32

	Gamma, Beta *Param
}

// NewBatchNorm2D builds a BatchNorm over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5,
		Gamma: NewParam(name+".gamma", c),
		Beta:  NewParam(name+".beta", c),
	}
	bn.Gamma.Fill(1)
	return bn
}

// Params returns the scale and the shift.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// stats returns the mean and 1/σ of one channel of one sample. Forward
// and Backward both call it, so Backward's x̂ = (v−mean)·inv is the
// forward's to the bit.
func (bn *BatchNorm2D) stats(xc []float32) (mean, inv float32) {
	n := float32(len(xc))
	var varv float32
	for _, v := range xc {
		mean += v
	}
	mean /= n
	for _, v := range xc {
		d := v - mean
		varv += d * d
	}
	varv /= n
	return mean, 1 / float32(math.Sqrt(float64(varv+bn.Eps)))
}

// Forward normalises a channel-major batch, drawing the output from
// ws. relu fuses max(0, ·) of the identical normalised value,
// bit-identical to a separate rectifying sweep.
func (bn *BatchNorm2D) Forward(ws *Workspace, x []float32, batch, hw int, relu bool) []float32 {
	if len(x) < bn.C*batch*hw {
		panic("nn: BatchNorm2D.Forward input too small")
	}
	out := ws.Take(bn.C * batch * hw)
	for c := 0; c < bn.C; c++ {
		g, b := bn.Gamma.W[c], bn.Beta.W[c]
		for s := 0; s < batch; s++ {
			xc := x[(c*batch+s)*hw : (c*batch+s+1)*hw]
			mean, inv := bn.stats(xc)
			oc := out[(c*batch+s)*hw : (c*batch+s+1)*hw]
			for i, v := range xc {
				// g·x̂ + b with x̂ = (v−mean)·inv, the association
				// Backward recomputes: float multiplication is not
				// associative and the contract is bit-identity.
				o := g*((v-mean)*inv) + b
				if relu && o < 0 {
					o = 0
				}
				oc[i] = o
			}
		}
	}
	return out
}

// Backward takes one sample's forward input x [C, hw] and d(out) dy,
// accumulates dγ and dβ, and returns d(x) drawn from ws. With relu, dy
// is the gradient of the rectified output: it passes where the
// recomputed pre-activation is not negative (a pre-activation of
// exactly 0 passes) and is 0 elsewhere.
func (bn *BatchNorm2D) Backward(ws *Workspace, x, dy []float32, hw int, relu bool) []float32 {
	n := float32(hw)
	dx := ws.Take(bn.C * hw)
	for c := 0; c < bn.C; c++ {
		xc := x[c*hw : (c+1)*hw]
		dxc := dx[c*hw : (c+1)*hw]
		g, b := bn.Gamma.W[c], bn.Beta.W[c]
		mean, inv := bn.stats(xc)
		var sumDy, sumDyXh float32
		for i, v := range xc {
			xh := (v - mean) * inv
			d := dy[c*hw+i]
			if relu && g*xh+b < 0 {
				d = 0
			}
			dxc[i] = d
			sumDy += d
			sumDyXh += d * xh
		}
		bn.Beta.G[c] += sumDy
		bn.Gamma.G[c] += sumDyXh
		for i, v := range xc {
			xh := (v - mean) * inv
			dxc[i] = g * inv * (dxc[i] - sumDy/n - xh*sumDyXh/n)
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// Linear

// Linear is a fully-connected layer y = W·x + b over flattened inputs.
type Linear struct {
	In, Out int
	Weight  *Param // [Out][In]
	Bias    *Param // [Out]
}

// NewLinear builds a fully-connected layer.
func NewLinear(name string, in, out int, r *rng.RNG) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: NewParam(name+".w", out*in),
		Bias:   NewParam(name+".b", out),
	}
	l.Weight.InitHe(r, in)
	return l
}

// Params returns the weight matrix and the bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// ApplyInto computes W·x + b into dst (length l.Out) for one sample.
// An optional fused ReLU on each output takes max(0, ·) of the
// identical sum, so the fusion is bit-invisible. Returns dst.
func (l *Linear) ApplyInto(dst, x []float32, relu bool) []float32 {
	if len(x) != l.In {
		panic("nn: Linear.ApplyInto input length mismatch")
	}
	if len(dst) != l.Out {
		panic("nn: Linear.ApplyInto dst length mismatch")
	}
	for o := 0; o < l.Out; o++ {
		row := l.Weight.W[o*l.In : (o+1)*l.In]
		s := l.Bias.W[o]
		for i, v := range x {
			s += row[i] * v
		}
		if relu && s < 0 {
			s = 0
		}
		dst[o] = s
	}
	return dst
}

// Backward takes the forward input x and d(out) dy, accumulates dW
// and db, and returns d(x) drawn from ws. With relu, dy is the
// gradient of the rectified output, masked by the sign of the
// recomputed pre-activation as in BatchNorm2D.Backward.
func (l *Linear) Backward(ws *Workspace, x, dy []float32, relu bool) []float32 {
	var pre []float32
	if relu {
		pre = l.ApplyInto(ws.Take(l.Out), x, false)
	}
	dx := ws.Take(l.In)
	clear(dx)
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		if relu && pre[o] < 0 {
			g = 0
		}
		l.Bias.G[o] += g
		if g == 0 {
			continue
		}
		wrow := l.Weight.W[o*l.In : (o+1)*l.In]
		grow := l.Weight.G[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			// The conversion rounds the product before the add, so no
			// platform fuses the two (see agent.AddGradsFrom).
			grow[i] += float32(g * x[i])
			dx[i] += g * wrow[i]
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// Embedding

// Embedding maps an integer id to a learnable D-vector; the paper uses
// it as the position embedding of the sequence number t. Ids outside
// [0, N) clamp to the first or last row.
type Embedding struct {
	N, D   int
	Weight *Param // [N][D]
}

// NewEmbedding builds an embedding table with n rows of d dims.
func NewEmbedding(name string, n, d int, r *rng.RNG) *Embedding {
	e := &Embedding{N: n, D: d, Weight: NewParam(name+".w", n*d)}
	e.Weight.InitUniform(r, 0.05)
	return e
}

// Params returns the learnable table.
func (e *Embedding) Params() []*Param { return []*Param{e.Weight} }

func (e *Embedding) row(id int) int { return max(0, min(id, e.N-1)) }

// At returns row id of the table. The slice aliases the weights: it is
// read-only.
func (e *Embedding) At(id int) []float32 {
	r := e.row(id)
	return e.Weight.W[r*e.D : (r+1)*e.D]
}

// Backward accumulates d(At(id)) = dy into the gradient of row id.
func (e *Embedding) Backward(id int, dy []float32) {
	r := e.row(id)
	row := e.Weight.G[r*e.D : (r+1)*e.D]
	for i := range row {
		row[i] += dy[i]
	}
}

// ---------------------------------------------------------------------------
// Softmax helpers

// Softmax writes the softmax of logits into out (allocating when out
// is nil) and returns it. Numerically stabilised.
func Softmax(out, logits []float32) []float32 {
	if out == nil {
		out = make([]float32, len(logits))
	}
	maxv := float32(math.Inf(-1))
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range logits {
		e := float32(math.Exp(float64(v - maxv)))
		out[i] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// MaskedSoftmax computes softmax over the entries whose mask value is
// positive, weighting probabilities by the mask as the paper's policy
// head does (logits are multiplied by the availability map s_a before
// the softmax). Entries with mask <= 0 get probability 0. If no entry
// has positive mask, the result is the plain softmax.
func MaskedSoftmax(out, logits, mask []float32) []float32 {
	if out == nil {
		out = make([]float32, len(logits))
	}
	any := false
	for _, m := range mask {
		if m > 0 {
			any = true
			break
		}
	}
	if !any {
		return Softmax(out, logits)
	}
	maxv := float32(math.Inf(-1))
	for i, v := range logits {
		if mask[i] > 0 && v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range logits {
		if mask[i] > 0 {
			e := mask[i] * float32(math.Exp(float64(v-maxv)))
			out[i] = e
			sum += e
		} else {
			out[i] = 0
		}
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}
