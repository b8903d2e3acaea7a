package netlist

import (
	"math"
	"testing"

	"macroplace/internal/geom"
)

func constraintsTestDesign() *Design {
	d := &Design{Name: "c", Region: geom.NewRect(0, 0, 100, 100)}
	d.AddNode(Node{Name: "m0", Kind: Macro, W: 10, H: 10, X: 10, Y: 10})
	d.AddNode(Node{Name: "m1", Kind: Macro, W: 10, H: 10, X: 40, Y: 10})
	d.AddNode(Node{Name: "f0", Kind: Macro, Fixed: true, W: 10, H: 10, X: 70, Y: 70})
	d.AddNet(Net{Name: "n0", Pins: []Pin{{Node: 0}, {Node: 1}}})
	return d
}

func TestConstraintsPadSemantics(t *testing.T) {
	c := &Constraints{HaloX: 2, HaloY: 1, ChannelX: 6, Halos: map[string]Halo{"m1": {X: 5, Y: 5}}}
	px, py := c.Pad("m0")
	if px != 3 || py != 1 { // max(2, 6/2), max(1, 0)
		t.Fatalf("default pad = (%v, %v), want (3, 1)", px, py)
	}
	px, py = c.Pad("m1")
	if px != 5 || py != 5 {
		t.Fatalf("override pad = (%v, %v), want (5, 5)", px, py)
	}
	px, py = c.MaxPad()
	if px != 5 || py != 5 {
		t.Fatalf("MaxPad = (%v, %v), want (5, 5)", px, py)
	}
}

func TestConstraintViolationsCounts(t *testing.T) {
	d := constraintsTestDesign()
	if rep := d.ConstraintViolations(); !rep.Clean() {
		t.Fatalf("nil Phys reported violations: %v", rep)
	}

	d.Phys = &Constraints{HaloX: 2, HaloY: 2}
	if rep := d.ConstraintViolations(); !rep.Clean() {
		t.Fatalf("well-spaced placement reported violations: %v", rep)
	}

	// Move m1 so the halos interpenetrate (gap 3 < halo sum 4).
	d.Nodes[1].X = 23
	rep := d.ConstraintViolations()
	if rep.HaloOverlaps != 1 || rep.HaloOverlapArea <= 0 {
		t.Fatalf("want one halo overlap, got %v", rep)
	}

	// Fence that excludes m0's inflated rect.
	d.Nodes[1].X = 40
	f := geom.NewRect(20, 0, 80, 100)
	d.Phys.Fence = &f
	rep = d.ConstraintViolations()
	if rep.FenceViolations != 1 {
		t.Fatalf("want one fence violation, got %v", rep)
	}

	// Snap: m0 at x=10 on a pitch-4 lattice is off by 2.
	d.Phys.Fence = nil
	d.Phys.SnapX = 4
	d.Phys.SnapOriginX = 0
	d.Nodes[0].X = 10
	rep = d.ConstraintViolations()
	if rep.SnapViolations != 1 {
		t.Fatalf("want one snap violation (m0 at 10 on pitch 4), got %v", rep)
	}
	d.Nodes[0].X = 12
	if rep = d.ConstraintViolations(); rep.SnapViolations != 0 {
		t.Fatalf("on-lattice origin flagged: %v", rep)
	}
}

func TestConstraintViolationsNilPhysAuditsOverlap(t *testing.T) {
	d := constraintsTestDesign()
	d.Nodes[1].X = 15 // m1 overlaps m0 by 5x10
	rep := d.ConstraintViolations()
	if rep.Clean() || rep.HaloOverlaps != 1 || rep.HaloOverlapArea != 50 {
		t.Fatalf("nil Phys: want one bare overlap of area 50, got %v", rep)
	}
	d.Nodes[1].X = 20 // edge to edge
	if rep := d.ConstraintViolations(); !rep.Clean() {
		t.Fatalf("abutting macros reported: %v", rep)
	}
	d.Nodes[1].X = 95 // sticks out of the region
	if rep := d.ConstraintViolations(); rep.FenceViolations != 1 {
		t.Fatalf("nil Phys: want one region violation, got %v", rep)
	}
}

func TestConstraintsNilPadsNothing(t *testing.T) {
	var c *Constraints
	if px, py := c.Pad("m0"); px != 0 || py != 0 {
		t.Fatalf("nil Pad = (%v, %v), want (0, 0)", px, py)
	}
	if px, py := c.MaxPad(); px != 0 || py != 0 {
		t.Fatalf("nil MaxPad = (%v, %v), want (0, 0)", px, py)
	}
}

func TestMacroOverlapSums(t *testing.T) {
	d := &Design{Region: geom.NewRect(0, 0, 10, 10)}
	d.AddNode(Node{Name: "a", Kind: Macro, W: 2, H: 2, X: 0, Y: 0})
	d.AddNode(Node{Name: "b", Kind: Macro, W: 2, H: 2, X: 1, Y: 1})
	d.AddNode(Node{Name: "c", Kind: Cell, W: 2, H: 2, X: 1, Y: 1})
	d.AddNode(Node{Name: "f", Kind: Macro, Fixed: true, W: 2, H: 2, X: 6, Y: 6})
	d.AddNode(Node{Name: "g", Kind: Macro, Fixed: true, W: 2, H: 2, X: 7, Y: 6})
	if got := d.MacroOverlap(); got != 3 {
		t.Errorf("MacroOverlap = %v, want 3 (cells ignored, fixed pair counted)", got)
	}
	if got := d.MovableOverlap(); got != 1 {
		t.Errorf("MovableOverlap = %v, want 1 (fixed-fixed pair skipped)", got)
	}
	if got := d.ConvergenceEps(); got != 16e-12 {
		t.Errorf("ConvergenceEps = %v, want 1e-12 x macro area 16", got)
	}
}

func TestConstraintViolationsFixedPairsIgnored(t *testing.T) {
	d := constraintsTestDesign()
	d.Nodes[0].Fixed = true
	d.Nodes[1].Fixed = true
	d.Nodes[1].X = 19 // fixed-fixed interpenetration
	d.Phys = &Constraints{HaloX: 2}
	if rep := d.ConstraintViolations(); rep.HaloOverlaps != 0 {
		t.Fatalf("fixed-fixed pair counted: %v", rep)
	}
}

func TestConstraintsValidate(t *testing.T) {
	region := geom.NewRect(0, 0, 100, 100)
	cases := []struct {
		name string
		c    Constraints
		ok   bool
	}{
		{"zero", Constraints{}, true},
		{"plain", Constraints{HaloX: 1, HaloY: 1, ChannelX: 2, SnapX: 0.5}, true},
		{"nan halo", Constraints{HaloX: math.NaN()}, false},
		{"inf channel", Constraints{ChannelY: math.Inf(1)}, false},
		{"negative halo", Constraints{HaloY: -1}, false},
		{"negative snap", Constraints{SnapX: -0.5}, false},
		{"nan snap origin", Constraints{SnapOriginY: math.NaN()}, false},
		{"inverted fence", Constraints{Fence: &geom.Rect{Lx: 50, Ly: 0, Ux: 10, Uy: 100}}, false},
		{"fence outside region", Constraints{Fence: &geom.Rect{Lx: -10, Ly: 0, Ux: 50, Uy: 50}}, false},
		{"fence ok", Constraints{Fence: &geom.Rect{Lx: 10, Ly: 10, Ux: 90, Uy: 90}}, true},
		{"pad swallows fence", Constraints{HaloX: 50, Fence: &geom.Rect{Lx: 10, Ly: 10, Ux: 90, Uy: 90}}, false},
		{"nan fence", Constraints{Fence: &geom.Rect{Lx: math.NaN(), Ly: 0, Ux: 10, Uy: 10}}, false},
		{"unnamed per-macro halo", Constraints{Halos: map[string]Halo{"": {X: 1}}}, false},
		{"negative per-macro halo", Constraints{Halos: map[string]Halo{"m": {Y: -2}}}, false},
	}
	for _, tc := range cases {
		err := tc.c.Validate(region)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestConstraintsCloneIndependent(t *testing.T) {
	f := geom.NewRect(1, 2, 3, 4)
	c := &Constraints{HaloX: 1, Fence: &f, Halos: map[string]Halo{"m": {X: 2, Y: 3}}}
	d := constraintsTestDesign()
	d.Phys = c
	cp := d.Clone()
	cp.Phys.Fence.Ux = 99
	cp.Phys.Halos["m"] = Halo{X: 7}
	if c.Fence.Ux == 99 || c.Halos["m"].X == 7 {
		t.Fatal("Clone shares constraint storage with the original")
	}
}

func TestContentHashSeesConstraints(t *testing.T) {
	d := constraintsTestDesign()
	h0 := d.ContentHash()
	d.Phys = &Constraints{} // inactive: hash must not move
	if d.ContentHash() != h0 {
		t.Fatal("inactive constraints changed the content hash")
	}
	d.Phys = &Constraints{HaloX: 1}
	h1 := d.ContentHash()
	if h1 == h0 {
		t.Fatal("active constraints did not change the content hash")
	}
	d.Phys.Halos = map[string]Halo{"m0": {X: 1}, "m1": {Y: 2}}
	h2 := d.ContentHash()
	if h2 == h1 {
		t.Fatal("per-macro halos did not change the content hash")
	}
	if d.ContentHash() != h2 {
		t.Fatal("constraint hash is not deterministic")
	}
}

func TestSnapCoord(t *testing.T) {
	if got := SnapCoord(10.9, 4, 0); got != 12 {
		t.Fatalf("SnapCoord(10.9, 4, 0) = %v, want 12", got)
	}
	if got := SnapCoord(10.9, 0, 0); got != 10.9 {
		t.Fatalf("pitch 0 must be identity, got %v", got)
	}
	if got := SnapCoord(10.9, 4, 1); got != 9 {
		t.Fatalf("SnapCoord(10.9, 4, 1) = %v, want 9", got)
	}
	if !OnLattice(9, 4, 1) || OnLattice(10, 4, 1) {
		t.Fatal("OnLattice disagrees with SnapCoord")
	}
}
