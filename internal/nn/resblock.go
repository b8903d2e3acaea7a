package nn

import "macroplace/internal/rng"

// ResBlock is the residual unit of the paper's Fig. 2 (right-bottom):
// Conv3x3+BN, ReLU, Conv3x3+BN, skip connection, ReLU.
type ResBlock struct {
	Conv1 *Conv2D
	BN1   *BatchNorm2D
	Conv2 *Conv2D
	BN2   *BatchNorm2D
}

// ResActs holds the activations of one ResBlock.Forward that its
// Backward reads.
type ResActs struct {
	x  []float32 // block input
	h1 []float32 // first convolution's output
	a1 []float32 // rectified BN1 output, the second convolution's input
	h2 []float32 // second convolution's output
}

// NewResBlock builds a residual block over c channels.
func NewResBlock(name string, c int, r *rng.RNG) *ResBlock {
	return &ResBlock{
		Conv1: NewConv2D(name+".conv1", c, c, 3, r),
		BN1:   NewBatchNorm2D(name+".bn1", c),
		Conv2: NewConv2D(name+".conv2", c, c, 3, r),
		BN2:   NewBatchNorm2D(name+".bn2", c),
	}
}

// Params returns the parameters of both convolutions and BatchNorms.
func (b *ResBlock) Params() []*Param {
	var out []*Param
	out = append(out, b.Conv1.Params()...)
	out = append(out, b.BN1.Params()...)
	out = append(out, b.Conv2.Params()...)
	out = append(out, b.BN2.Params()...)
	return out
}

// Forward applies the block to a channel-major batch over ws, with the
// first BN+ReLU and the skip add+ReLU fused. A non-nil acts receives
// the activations Backward needs; they are slices of ws (and x), valid
// until ws is Reset.
func (b *ResBlock) Forward(ws *Workspace, x []float32, batch, h, w int, acts *ResActs) []float32 {
	hw := h * w
	h1 := b.Conv1.Forward(ws, x, batch, h, w)
	a1 := b.BN1.Forward(ws, h1, batch, hw, true)
	h2 := b.Conv2.Forward(ws, a1, batch, h, w)
	if acts != nil {
		*acts = ResActs{x: x, h1: h1, a1: a1, h2: h2}
	}
	return AddReLUBatch(b.BN2.Forward(ws, h2, batch, hw, false), x)
}

// Backward takes the activations of a batch-1 Forward and d(out) dy,
// accumulates every parameter gradient, and returns d(x) drawn from
// ws. The skip ReLU's mask is the sign of the recomputed BN2 output
// plus x, the pre-activation Forward rectified.
func (b *ResBlock) Backward(ws *Workspace, acts *ResActs, dy []float32, h, w int) []float32 {
	hw := h * w
	d := b.BN2.Forward(ws, acts.h2, 1, hw, false)
	for i, v := range d {
		if v+acts.x[i] < 0 {
			d[i] = 0
		} else {
			d[i] = dy[i]
		}
	}
	// d flows both into the residual branch and the identity skip.
	db := b.BN2.Backward(ws, acts.h2, d, hw, false)
	db = b.Conv2.Backward(ws, acts.a1, db, h, w)
	db = b.BN1.Backward(ws, acts.h1, db, hw, true)
	db = b.Conv1.Backward(ws, acts.x, db, h, w)
	for i, v := range d {
		db[i] += v
	}
	return db
}

// AddReLUBatch computes out[i] = max(0, out[i]+x[i]) in place: the
// residual-block skip connection with its ReLU fused into one sweep.
func AddReLUBatch(out, x []float32) []float32 {
	for i, v := range out {
		v += x[i]
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}
