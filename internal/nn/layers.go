package nn

import (
	"fmt"
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

	// cached for backward
	h, w int
	cols []float32 // [Cin*K*K][H*W]
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

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Forward implements Layer. Input must be [Cin, H, W].
func (c *Conv2D) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 3 || x.Shape[0] != c.Cin {
		panic(fmt.Sprintf("nn: Conv2D expects [%d,H,W], got %v", c.Cin, x.Shape))
	}
	h, w := x.Shape[1], x.Shape[2]
	c.h, c.w = h, w
	ck := c.Cin * c.K * c.K
	hw := h * w
	if cap(c.cols) < ck*hw {
		c.cols = make([]float32, ck*hw)
	}
	cols := c.cols[:ck*hw]
	im2col(cols, x.Data, c.Cin, h, w, c.K, c.Pad)

	out := NewTensor(c.Cout, h, w)
	matMulBias(out.Data, c.Weight.W, cols, c.Bias.W, c.Cout, ck, hw, false, trainFanOutWork)
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *Tensor) *Tensor {
	h, w := c.h, c.w
	ck := c.Cin * c.K * c.K
	hw := h * w
	cols := c.cols[:ck*hw]

	// dW += dy · colsᵀ ; db += Σ dy
	MatMulABTAcc(c.Weight.G, dy.Data, cols, c.Cout, hw, ck)
	for co := 0; co < c.Cout; co++ {
		var s float32
		row := dy.Data[co*hw : (co+1)*hw]
		for _, v := range row {
			s += v
		}
		c.Bias.G[co] += s
	}

	// dcols = Wᵀ · dy ; dx = col2im(dcols)
	dcols := make([]float32, ck*hw)
	MatMulATB(dcols, c.Weight.W, dy.Data, ck, c.Cout, hw)
	dx := NewTensor(c.Cin, h, w)
	col2im(dx.Data, dcols, c.Cin, h, w, c.K, c.Pad)
	return dx
}

// ReleaseCache drops the im2col buffer kept for Backward; the next
// Forward allocates a new one.
func (c *Conv2D) ReleaseCache() { c.cols = nil }

// im2col lowers x[Cin,H,W] into cols[Cin*K*K, H*W] for stride-1
// convolution with the given padding.
func im2col(cols, x []float32, cin, h, w, k, pad int) {
	hw := h * w
	row := 0
	for ci := 0; ci < cin; ci++ {
		xc := x[ci*hw : (ci+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cols[row*hw : (row+1)*hw]
				row++
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					base := oy * w
					if iy < 0 || iy >= h {
						for ox := 0; ox < w; ox++ {
							dst[base+ox] = 0
						}
						continue
					}
					ib := iy * w
					for ox := 0; ox < w; ox++ {
						ix := ox + kx - pad
						if ix < 0 || ix >= w {
							dst[base+ox] = 0
						} else {
							dst[base+ox] = xc[ib+ix]
						}
					}
				}
			}
		}
	}
}

// col2im is the adjoint of im2col: it scatters column gradients back
// into the input gradient.
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

// BatchNorm2D normalises each channel over its spatial extent (the
// batch dimension is 1 throughout this codebase, so statistics come
// from the H×W samples of the channel). Training and inference use the
// same per-sample statistics, so the layer's only state is Gamma and
// Beta; it keeps no running statistics.
type BatchNorm2D struct {
	C   int
	Eps float32

	Gamma, Beta *Param

	// cached for backward
	xhat   []float32
	invStd []float32
	h, w   int
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

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 3 || x.Shape[0] != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D expects [%d,H,W], got %v", bn.C, x.Shape))
	}
	h, w := x.Shape[1], x.Shape[2]
	bn.h, bn.w = h, w
	hw := h * w
	if cap(bn.xhat) < bn.C*hw {
		bn.xhat = make([]float32, bn.C*hw)
		bn.invStd = make([]float32, bn.C)
	}
	bn.xhat = bn.xhat[:bn.C*hw]
	out := NewTensor(bn.C, h, w)
	n := float32(hw)
	for c := 0; c < bn.C; c++ {
		xc := x.Data[c*hw : (c+1)*hw]
		var mean, varv float32
		for _, v := range xc {
			mean += v
		}
		mean /= n
		for _, v := range xc {
			d := v - mean
			varv += d * d
		}
		varv /= n
		inv := 1 / float32(math.Sqrt(float64(varv+bn.Eps)))
		bn.invStd[c] = inv
		g, b := bn.Gamma.W[c], bn.Beta.W[c]
		xh := bn.xhat[c*hw : (c+1)*hw]
		oc := out.Data[c*hw : (c+1)*hw]
		for i, v := range xc {
			xh[i] = (v - mean) * inv
			oc[i] = g*xh[i] + b
		}
	}
	return out
}

// Backward implements Layer.
func (bn *BatchNorm2D) Backward(dy *Tensor) *Tensor {
	h, w := bn.h, bn.w
	hw := h * w
	n := float32(hw)
	dx := NewTensor(bn.C, h, w)
	for c := 0; c < bn.C; c++ {
		dyc := dy.Data[c*hw : (c+1)*hw]
		xh := bn.xhat[c*hw : (c+1)*hw]
		var sumDy, sumDyXh float32
		for i := range dyc {
			sumDy += dyc[i]
			sumDyXh += dyc[i] * xh[i]
		}
		bn.Beta.G[c] += sumDy
		bn.Gamma.G[c] += sumDyXh
		g := bn.Gamma.W[c]
		inv := bn.invStd[c]
		dxc := dx.Data[c*hw : (c+1)*hw]
		for i := range dyc {
			dxc[i] = g * inv * (dyc[i] - sumDy/n - xh[i]*sumDyXh/n)
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// ReLU

// ReLU is an elementwise rectifier.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor) *Tensor {
	out := x.Clone()
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *Tensor) *Tensor {
	dx := dy.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
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

	x []float32 // cached input
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

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Forward implements Layer; any input shape with In elements works.
func (l *Linear) Forward(x *Tensor) *Tensor {
	if x.Len() != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d inputs, got %d", l.In, x.Len()))
	}
	if cap(l.x) < l.In {
		l.x = make([]float32, l.In)
	}
	l.x = l.x[:l.In]
	copy(l.x, x.Data)
	out := NewTensor(l.Out)
	for o := 0; o < l.Out; o++ {
		row := l.Weight.W[o*l.In : (o+1)*l.In]
		s := l.Bias.W[o]
		for i, v := range x.Data {
			s += row[i] * v
		}
		out.Data[o] = s
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(dy *Tensor) *Tensor {
	dx := NewTensor(l.In)
	for o := 0; o < l.Out; o++ {
		g := dy.Data[o]
		l.Bias.G[o] += g
		if g == 0 {
			continue
		}
		wrow := l.Weight.W[o*l.In : (o+1)*l.In]
		grow := l.Weight.G[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			grow[i] += g * l.x[i]
			dx.Data[i] += g * wrow[i]
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// Embedding

// Embedding maps an integer id to a learnable D-vector; the paper uses
// it as the position embedding of the sequence number t.
type Embedding struct {
	N, D   int
	Weight *Param // [N][D]
	last   int
}

// NewEmbedding builds an embedding table with n rows of d dims.
func NewEmbedding(name string, n, d int, r *rng.RNG) *Embedding {
	e := &Embedding{N: n, D: d, Weight: NewParam(name+".w", n*d)}
	e.Weight.InitUniform(r, 0.05)
	return e
}

// Params returns the learnable table.
func (e *Embedding) Params() []*Param { return []*Param{e.Weight} }

// Lookup returns row id as a tensor (data aliases the table).
func (e *Embedding) Lookup(id int) *Tensor {
	if id < 0 {
		id = 0
	}
	if id >= e.N {
		id = e.N - 1
	}
	e.last = id
	out := NewTensor(e.D)
	copy(out.Data, e.Weight.W[id*e.D:(id+1)*e.D])
	return out
}

// Accumulate adds the gradient for the most recent Lookup.
func (e *Embedding) Accumulate(dy *Tensor) {
	row := e.Weight.G[e.last*e.D : (e.last+1)*e.D]
	for i := range row {
		row[i] += dy.Data[i]
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
