package legalize

import (
	"math"
	"sort"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

// EnforceConstraints makes every movable macro of d clean under
// d.Phys — halo/channel spacing, fence containment, and row/track
// snapping — mutating d. It is the one separation pass of every placer
// backend (legalize.Macros for the mcts/core flow, baseline.Finish for
// the six comparison placers), so the whole portfolio honors one
// legality semantics. A nil Phys means zero pads, no fence and no snap
// lattice: the pass then only removes macro overlap. It reports
// whether a violation-free state with no bare movable-macro overlap
// beyond d.ConvergenceEps() was reached.
//
// Strategy: a pairwise shove on pad-inflated rectangles (cheap,
// preserves the placement), then lattice snapping, then — only for
// macros still in violation — a deterministic greedy re-seat onto the
// nearest legal lattice position, committed in non-increasing area
// order.
func EnforceConstraints(d *netlist.Design) bool {
	c := d.Phys
	if c == nil {
		c = &netlist.Constraints{}
	}
	fence := c.FenceRect(d.Region)
	if is, ok := fence.Intersect(d.Region); ok {
		fence = is
	} else {
		fence = d.Region
	}
	legal := func() bool {
		return d.ConstraintViolations().Clean() && d.MovableOverlap() <= d.ConvergenceEps()
	}

	movable := d.MovableMacroIndices()
	if len(movable) == 0 {
		return legal()
	}

	shove(d, c, movable, fence, 200)
	snapMovable(d, c, movable, fence)
	if legal() {
		return true
	}
	repair(d, c, fence)
	return legal()
}

// shove separates overlapping pad-inflated macros along the
// minimum-penetration axis, clamping each movable macro so its
// inflated rect stays inside the fence. Fixed macros push (inflated by
// their own pads) but never move. Every rectangle is rebuilt from its
// node origin at each test and push, so zero pads reproduce the bare
// geometry exactly.
func shove(d *netlist.Design, c *netlist.Constraints, movable []int, fence geom.Rect, maxIters int) {
	all := append([]int(nil), movable...)
	nMov := len(all)
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Macro && d.Nodes[i].Fixed {
			all = append(all, i)
		}
	}
	pads := make([][2]float64, len(all))
	for k, i := range all {
		pads[k][0], pads[k][1] = c.Pad(d.Nodes[i].Name)
	}
	infl := func(k int) geom.Rect {
		return d.Nodes[all[k]].Rect().Inflate(pads[k][0], pads[k][1])
	}
	push := func(k int, px, py float64) {
		r := infl(k).Translate(px, py).ClampInto(fence)
		d.Nodes[all[k]].X, d.Nodes[all[k]].Y = r.Lx+pads[k][0], r.Ly+pads[k][1]
	}
	for k := 0; k < nMov; k++ {
		if !fence.ContainsRect(infl(k)) {
			push(k, 0, 0)
		}
	}
	for iter := 0; iter < maxIters; iter++ {
		obsShoveIters.Inc()
		found := false
		for a := 0; a < len(all); a++ {
			for b := a + 1; b < len(all); b++ {
				if a >= nMov && b >= nMov {
					continue
				}
				is, ok := infl(a).Intersect(infl(b))
				if !ok {
					continue
				}
				found = true
				moveA, moveB := a < nMov, b < nMov
				ca, cb := d.Nodes[all[a]].Center(), d.Nodes[all[b]].Center()
				dx, dy := is.W(), is.H()
				if dx <= dy {
					dir := 1.0
					if ca.X > cb.X {
						dir = -1
					}
					switch {
					case moveA && moveB:
						push(a, -dir*dx/2, 0)
						push(b, dir*dx/2, 0)
					case moveA:
						push(a, -dir*dx, 0)
					default:
						push(b, dir*dx, 0)
					}
				} else {
					dir := 1.0
					if ca.Y > cb.Y {
						dir = -1
					}
					switch {
					case moveA && moveB:
						push(a, 0, -dir*dy/2)
						push(b, 0, dir*dy/2)
					case moveA:
						push(a, 0, -dir*dy)
					default:
						push(b, 0, dir*dy)
					}
				}
			}
		}
		if !found {
			return
		}
	}
}

// snapMovable puts every movable macro's origin on the snap lattice,
// choosing the nearest lattice point whose inflated rect stays inside
// the fence.
func snapMovable(d *netlist.Design, c *netlist.Constraints, movable []int, fence geom.Rect) {
	if c.SnapX <= 0 && c.SnapY <= 0 {
		return
	}
	for _, m := range movable {
		n := &d.Nodes[m]
		px, py := c.Pad(n.Name)
		if x, ok := snapInto(n.X, fence.Lx+px, fence.Ux-px-n.W, c.SnapX, c.SnapOriginX); ok {
			n.X = x
		}
		if y, ok := snapInto(n.Y, fence.Ly+py, fence.Uy-py-n.H, c.SnapY, c.SnapOriginY); ok {
			n.Y = y
		}
	}
}

// snapInto returns the lattice point nearest v inside [lo, hi], or
// (clamped v, true) when pitch is zero, or (v, false) when the
// interval holds no lattice point at all.
func snapInto(v, lo, hi, pitch, origin float64) (float64, bool) {
	if hi < lo {
		return v, false
	}
	v = math.Min(math.Max(v, lo), hi)
	if pitch <= 0 {
		return v, true
	}
	s := netlist.SnapCoord(v, pitch, origin)
	if s < lo {
		s += pitch * math.Ceil((lo-s)/pitch)
	}
	if s > hi {
		s -= pitch * math.Ceil((s-hi)/pitch)
	}
	if s < lo || s > hi {
		return v, false
	}
	return s, true
}

// repair is the deterministic last-resort pass: macros are committed
// in non-increasing area order; a macro violating spacing or fence
// against the committed set, or overlapping a committed macro at all,
// moves to the nearest legal lattice position found on progressively
// finer candidate grids. Macros that fit nowhere stay put (the
// enclosing EnforceConstraints re-audit reports them).
func repair(d *netlist.Design, c *netlist.Constraints, fence geom.Rect) {
	eps := 1e-9 * (d.Region.W() + d.Region.H())

	// committed holds each committed macro's bare rect and its
	// pad-inflated rect.
	var committed [][2]geom.Rect
	commit := func(n *netlist.Node, px, py float64) {
		r := n.Rect()
		committed = append(committed, [2]geom.Rect{r, r.Inflate(px, py)})
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == netlist.Macro && n.Fixed {
			px, py := c.Pad(n.Name)
			commit(n, px, py)
		}
	}
	legal := func(r geom.Rect, px, py float64) bool {
		infl := r.Inflate(px, py)
		if infl.Lx < fence.Lx-eps || infl.Ly < fence.Ly-eps || infl.Ux > fence.Ux+eps || infl.Uy > fence.Uy+eps {
			return false
		}
		for _, cm := range committed {
			if r.Overlap(cm[0]) {
				return false
			}
			if is, ok := infl.Intersect(cm[1]); ok && math.Min(is.W(), is.H()) > eps {
				return false
			}
		}
		return true
	}

	order := d.MovableMacroIndices()
	sort.Slice(order, func(i, j int) bool {
		ai, aj := d.Nodes[order[i]].Area(), d.Nodes[order[j]].Area()
		if ai != aj {
			return ai > aj
		}
		return order[i] < order[j]
	})
	for _, m := range order {
		n := &d.Nodes[m]
		px, py := c.Pad(n.Name)
		if legal(n.Rect(), px, py) &&
			netlist.OnLattice(n.X, c.SnapX, c.SnapOriginX) &&
			netlist.OnLattice(n.Y, c.SnapY, c.SnapOriginY) {
			commit(n, px, py)
			continue
		}
		loX, hiX := fence.Lx+px, fence.Ux-px-n.W
		loY, hiY := fence.Ly+py, fence.Uy-py-n.H
		for _, k := range []int{16, 32, 64, 128} {
			bestD := math.Inf(1)
			var bestX, bestY float64
			for iy := 0; iy <= k; iy++ {
				cy := loY + float64(iy)*(hiY-loY)/float64(k)
				y, ok := snapInto(cy, loY, hiY, c.SnapY, c.SnapOriginY)
				if !ok {
					continue
				}
				for ix := 0; ix <= k; ix++ {
					cx := loX + float64(ix)*(hiX-loX)/float64(k)
					x, ok := snapInto(cx, loX, hiX, c.SnapX, c.SnapOriginX)
					if !ok {
						continue
					}
					dx, dy := x-n.X, y-n.Y
					dist := dx*dx + dy*dy
					if dist >= bestD || !legal(geom.Rect{Lx: x, Ly: y, Ux: x + n.W, Uy: y + n.H}, px, py) {
						continue
					}
					bestD, bestX, bestY = dist, x, y
				}
			}
			if !math.IsInf(bestD, 1) {
				n.X, n.Y = bestX, bestY
				break
			}
		}
		commit(n, px, py)
	}
}
