package nn

// Workspace is a bump-pointer float32 arena for the layer forwards and
// backwards: a pass Takes every buffer from it in a deterministic
// order, and the caller Resets it before the next pass. A training
// pass resets it before the forward and not again until the forward's
// Backward has run, so the activations Backward reads stay valid.
//
// A layer hands its transient buffers back as soon as its product is
// done: Mark before taking them, Release to the mark afterwards. The
// arena therefore grows to the peak of a pass's live buffers, not to
// the sum of every Take. The first pass over a new shape allocates
// (every Take that misses falls back to make), and every following
// pass of the same or smaller shape performs zero heap allocations.
// Buffers handed out by Take are NOT zeroed — every kernel fully
// overwrites its destination or clears it first, so recycled garbage
// can never leak into an output (tests pin the with-workspace results
// bit-identical to a nil workspace's).
//
// A nil *Workspace is valid and degrades every Take to a plain make.
type Workspace struct {
	arena []float32
	off   int // bump pointer: the live buffers occupy [0, off)
	need  int // high-water mark of off in the current pass
}

// Reset recycles the arena for a new pass, growing it to the previous
// pass's high-water mark so the new pass can run allocation-free.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	if w.need > len(w.arena) {
		w.arena = make([]float32, w.need)
	}
	w.off = 0
	w.need = 0
}

// Take returns a length-n float32 buffer with undefined contents. The
// buffer is valid until the next Reset, or the next Release to a mark
// taken before it; its capacity is clipped so an append can never
// bleed into a neighbouring Take.
func (w *Workspace) Take(n int) []float32 {
	if w == nil {
		return make([]float32, n)
	}
	w.off += n
	w.need = max(w.need, w.off)
	if w.off > len(w.arena) {
		// Warm-up miss: serve from the heap now, grow at the next Reset.
		return make([]float32, n)
	}
	return w.arena[w.off-n : w.off : w.off]
}

// Mark returns the current top of the arena for a later Release.
func (w *Workspace) Mark() int {
	if w == nil {
		return 0
	}
	return w.off
}

// Release hands back every buffer taken since Mark returned mark; they
// must no longer be used. Buffers taken before the mark stay valid.
func (w *Workspace) Release(mark int) {
	if w != nil {
		w.off = mark
	}
}
