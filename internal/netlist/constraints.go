package netlist

import (
	"fmt"
	"math"
	"sort"

	"macroplace/internal/geom"
)

// Halo is a per-macro halo override: keep-out margins added on each
// side of the macro (X on the left and right, Y on the bottom and top).
type Halo struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Constraints is the physical-legality contract a real flow imposes on
// macro placement, following the OpenROAD macro_placement semantics:
// macros must keep max(halo_a + halo_b, channel) spacing between each
// other per axis, stay (with their halos) inside the fence region, and
// snap their origins onto the row/track lattice. A nil *Constraints on
// Design.Phys — the only state the Bookshelf and synthetic paths ever
// produce — reads as zero pads, no fence and no snap lattice: macros
// must still not overlap.
//
// The enforcement model inflates every macro by its per-side pad
// (Pad): pads absorb both the halo and half the channel, so pairwise
// non-overlap of inflated rectangles implies the spacing rule, and
// inflated-rect-inside-fence implies the boundary clearance.
type Constraints struct {
	// HaloX, HaloY are the default per-side halo margins of every
	// macro (design units, i.e. microns for LEF/DEF designs).
	HaloX float64 `json:"halo_x,omitempty"`
	HaloY float64 `json:"halo_y,omitempty"`
	// ChannelX, ChannelY are minimum macro-to-macro channel widths;
	// the effective spacing per axis is max(halo_a + halo_b, channel).
	ChannelX float64 `json:"channel_x,omitempty"`
	ChannelY float64 `json:"channel_y,omitempty"`
	// Fence, when non-nil, confines every movable macro (inflated by
	// its pad) to this region. Nil means the whole placement region.
	Fence *geom.Rect `json:"fence,omitempty"`
	// SnapX, SnapY are the placement pitches movable-macro origins
	// snap to (0 disables snapping on that axis); the lattice is
	// origin + k*pitch with origin (SnapOriginX, SnapOriginY).
	SnapX       float64 `json:"snap_x,omitempty"`
	SnapY       float64 `json:"snap_y,omitempty"`
	SnapOriginX float64 `json:"snap_origin_x,omitempty"`
	SnapOriginY float64 `json:"snap_origin_y,omitempty"`
	// RowHeight and RowOriginY describe the standard-cell rows of a
	// DEF design (0: derive from cell heights as before). They inform
	// cell legalization, not macro legality.
	RowHeight  float64 `json:"row_height,omitempty"`
	RowOriginY float64 `json:"row_origin_y,omitempty"`
	// Halos holds per-macro halo overrides keyed by node name.
	Halos map[string]Halo `json:"halos,omitempty"`
}

// Active reports whether any macro-legality constraint is in effect.
// RowHeight/RowOriginY alone do not count — they only inform cell
// legalization. Only the content hash reads it, so designs without
// constraints keep their pre-constraint hashes.
func (c *Constraints) Active() bool {
	if c == nil {
		return false
	}
	return c.HaloX > 0 || c.HaloY > 0 || c.ChannelX > 0 || c.ChannelY > 0 ||
		c.Fence != nil || c.SnapX > 0 || c.SnapY > 0 || len(c.Halos) > 0
}

// Clone returns a deep copy (nil stays nil).
func (c *Constraints) Clone() *Constraints {
	if c == nil {
		return nil
	}
	out := *c
	if c.Fence != nil {
		f := *c.Fence
		out.Fence = &f
	}
	if c.Halos != nil {
		out.Halos = make(map[string]Halo, len(c.Halos))
		for k, v := range c.Halos {
			out.Halos[k] = v
		}
	}
	return &out
}

// Pad returns the per-side inflation of the named macro: the larger of
// its halo and half the channel, per axis. Inflating both macros of a
// pair by their pads and requiring non-overlap yields spacing
// >= max(halo_a + halo_b, channel). A nil receiver pads nothing.
func (c *Constraints) Pad(name string) (px, py float64) {
	if c == nil {
		return 0, 0
	}
	hx, hy := c.HaloX, c.HaloY
	if h, ok := c.Halos[name]; ok {
		hx, hy = h.X, h.Y
	}
	px = math.Max(hx, c.ChannelX/2)
	py = math.Max(hy, c.ChannelY/2)
	return px, py
}

// MaxPad returns the largest per-side pad any macro can carry — the
// safe group-level pad the grid-search stage uses before per-macro
// legalization refines it. A nil receiver pads nothing.
func (c *Constraints) MaxPad() (px, py float64) {
	if c == nil {
		return 0, 0
	}
	px, py = c.Pad("")
	for name := range c.Halos {
		x, y := c.Pad(name)
		px = math.Max(px, x)
		py = math.Max(py, y)
	}
	return px, py
}

// FenceRect resolves the effective fence: the explicit fence when set,
// otherwise the whole placement region.
func (c *Constraints) FenceRect(region geom.Rect) geom.Rect {
	if c != nil && c.Fence != nil {
		return *c.Fence
	}
	return region
}

// SnapCoord snaps v onto the lattice origin + k*pitch (pitch <= 0
// returns v unchanged).
func SnapCoord(v, pitch, origin float64) float64 {
	if pitch <= 0 {
		return v
	}
	return origin + math.Round((v-origin)/pitch)*pitch
}

// snapEps is the tolerance of an on-lattice check, scaled to the pitch
// so unit systems (microns vs DBU-derived floats) behave alike.
func snapEps(pitch float64) float64 { return 1e-6 * math.Max(pitch, 1) }

// OnLattice reports whether v sits on the lattice within tolerance.
func OnLattice(v, pitch, origin float64) bool {
	if pitch <= 0 {
		return true
	}
	return math.Abs(v-SnapCoord(v, pitch, origin)) <= snapEps(pitch)
}

// Validate rejects non-finite, negative, or out-of-region constraint
// values. region may be the zero rect when the design is not yet known
// (spec-level validation); the fence-inside-region check then waits
// for the design to materialise.
func (c *Constraints) Validate(region geom.Rect) error {
	if c == nil {
		return nil
	}
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("netlist: constraint %s %v is not finite", name, v)
		}
		return nil
	}
	nonneg := func(name string, v float64) error {
		if err := finite(name, v); err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf("netlist: constraint %s %v is negative", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"halo_x", c.HaloX}, {"halo_y", c.HaloY},
		{"channel_x", c.ChannelX}, {"channel_y", c.ChannelY},
		{"snap_x", c.SnapX}, {"snap_y", c.SnapY},
		{"row_height", c.RowHeight},
	} {
		if err := nonneg(f.name, f.val); err != nil {
			return err
		}
	}
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"snap_origin_x", c.SnapOriginX}, {"snap_origin_y", c.SnapOriginY},
		{"row_origin_y", c.RowOriginY},
	} {
		if err := finite(f.name, f.val); err != nil {
			return err
		}
	}
	for name, h := range c.Halos {
		if name == "" {
			return fmt.Errorf("netlist: per-macro halo with empty macro name")
		}
		if err := nonneg("halo["+name+"].x", h.X); err != nil {
			return err
		}
		if err := nonneg("halo["+name+"].y", h.Y); err != nil {
			return err
		}
	}
	if c.Fence != nil {
		f := *c.Fence
		for _, v := range []struct {
			name string
			val  float64
		}{{"fence.lx", f.Lx}, {"fence.ly", f.Ly}, {"fence.ux", f.Ux}, {"fence.uy", f.Uy}} {
			if err := finite(v.name, v.val); err != nil {
				return err
			}
		}
		if !f.Valid() || f.Empty() {
			return fmt.Errorf("netlist: fence %v is empty or inverted", f)
		}
		if region.Valid() && !region.Empty() && !region.ContainsRect(f) {
			return fmt.Errorf("netlist: fence %v outside the placement region %v", f, region)
		}
		// Out-of-die halos: at least one macro pad must fit in the fence
		// span per axis, otherwise no legal placement exists.
		px, py := c.MaxPad()
		if 2*px >= f.W() || 2*py >= f.H() {
			return fmt.Errorf("netlist: pad (%g, %g) exceeds the fence span %v", px, py, f)
		}
	}
	return nil
}

// hashInto mixes the constraint words into a caller-supplied FNV-style
// stream (see Design.ContentHash). Map entries are visited in sorted
// key order so the hash is deterministic.
func (c *Constraints) hashInto(word func(uint64), str func(string)) {
	f := func(v float64) { word(math.Float64bits(v)) }
	f(c.HaloX)
	f(c.HaloY)
	f(c.ChannelX)
	f(c.ChannelY)
	f(c.SnapX)
	f(c.SnapY)
	f(c.SnapOriginX)
	f(c.SnapOriginY)
	f(c.RowHeight)
	f(c.RowOriginY)
	if c.Fence != nil {
		word(1)
		f(c.Fence.Lx)
		f(c.Fence.Ly)
		f(c.Fence.Ux)
		f(c.Fence.Uy)
	} else {
		word(0)
	}
	names := make([]string, 0, len(c.Halos))
	for name := range c.Halos {
		names = append(names, name)
	}
	sort.Strings(names)
	word(uint64(len(names)))
	for _, name := range names {
		str(name)
		f(c.Halos[name].X)
		f(c.Halos[name].Y)
	}
}

// ViolationReport counts the constraint violations of a placement.
type ViolationReport struct {
	// HaloOverlaps counts macro pairs (at least one movable) whose
	// pad-inflated rectangles interpenetrate beyond tolerance;
	// HaloOverlapArea is their summed overlap area.
	HaloOverlaps    int
	HaloOverlapArea float64
	// FenceViolations counts movable macros whose inflated rectangle
	// leaves the fence beyond tolerance.
	FenceViolations int
	// SnapViolations counts movable macros whose origin is off the
	// snap lattice on either axis.
	SnapViolations int
}

// Clean reports a violation-free placement.
func (r ViolationReport) Clean() bool {
	return r.HaloOverlaps == 0 && r.FenceViolations == 0 && r.SnapViolations == 0
}

// String implements fmt.Stringer for test diagnostics.
func (r ViolationReport) String() string {
	return fmt.Sprintf("halo overlaps %d (area %g), fence violations %d, snap violations %d",
		r.HaloOverlaps, r.HaloOverlapArea, r.FenceViolations, r.SnapViolations)
}

// ConstraintViolations audits the current placement against d.Phys;
// a nil Phys audits bare macro overlap and region containment.
// Tolerance is ulp-scale relative to the region span, matching the
// conformance suite's in-region epsilon, so float dust from clamping
// never counts.
func (d *Design) ConstraintViolations() ViolationReport {
	var rep ViolationReport
	c := d.Phys
	if c == nil {
		c = &Constraints{}
	}
	eps := 1e-6 * (d.Region.W() + d.Region.H())
	fence := c.FenceRect(d.Region)

	type infl struct {
		r       geom.Rect
		movable bool
	}
	var macros []infl
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind != Macro {
			continue
		}
		px, py := c.Pad(n.Name)
		macros = append(macros, infl{r: n.Rect().Inflate(px, py), movable: n.Movable()})
		if n.Movable() {
			r := macros[len(macros)-1].r
			if r.Lx < fence.Lx-eps || r.Ly < fence.Ly-eps || r.Ux > fence.Ux+eps || r.Uy > fence.Uy+eps {
				rep.FenceViolations++
			}
			if !OnLattice(n.X, c.SnapX, c.SnapOriginX) || !OnLattice(n.Y, c.SnapY, c.SnapOriginY) {
				rep.SnapViolations++
			}
		}
	}
	for i := 0; i < len(macros); i++ {
		for j := i + 1; j < len(macros); j++ {
			if !macros[i].movable && !macros[j].movable {
				continue
			}
			is, ok := macros[i].r.Intersect(macros[j].r)
			if !ok {
				continue
			}
			if math.Min(is.W(), is.H()) > eps {
				rep.HaloOverlaps++
				rep.HaloOverlapArea += is.Area()
			}
		}
	}
	return rep
}

// MacroOverlap returns the summed pairwise overlap area between all
// macros, movable and fixed. Every placer reports this sum, in this
// order, so a reported overlap can be recomputed bit-exactly.
func (d *Design) MacroOverlap() float64 {
	return d.macroOverlap(false)
}

// MovableOverlap sums the pairwise bare overlap area over macro pairs
// with at least one movable member — the quantity legalization must
// drive to zero (fixed-fixed overlap is the design's own). Unlike
// ConstraintViolations it ignores no sliver; ConvergenceEps is its
// threshold.
func (d *Design) MovableOverlap() float64 {
	return d.macroOverlap(true)
}

func (d *Design) macroOverlap(movableOnly bool) float64 {
	macros := d.MacroIndices()
	var total float64
	for i := 0; i < len(macros); i++ {
		for j := i + 1; j < len(macros); j++ {
			a, b := &d.Nodes[macros[i]], &d.Nodes[macros[j]]
			if movableOnly && a.Fixed && b.Fixed {
				continue
			}
			total += a.Rect().OverlapArea(b.Rect())
		}
	}
	return total
}

// ConvergenceEps returns the MovableOverlap threshold below which a
// placement counts as fully separated: legalization packs neighbors
// edge to edge, and the packed coordinates can carry float-ulp overlap
// slivers that are not meaningful. The threshold scales with total
// macro area so it stays ulp-sized on any design.
func (d *Design) ConvergenceEps() float64 {
	var area float64
	for _, m := range d.MacroIndices() {
		area += d.Nodes[m].Area()
	}
	return 1e-12 * area
}
