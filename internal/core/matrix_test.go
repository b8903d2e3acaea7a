package core

import (
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/legalize"
)

// TestFlowMatrix exercises the full flow across structurally different
// designs — pads/no pads, pre-placed macros, deep/shallow hierarchy,
// coarse/fine grids — asserting the invariants every run must satisfy.
func TestFlowMatrix(t *testing.T) {
	cases := []struct {
		name string
		spec gen.Spec
		zeta int
	}{
		{"no-pads", gen.Spec{Name: "a", MovableMacros: 8, Cells: 150, Nets: 250, Seed: 70}, 8},
		{"with-pads", gen.Spec{Name: "b", MovableMacros: 6, Pads: 24, Cells: 150, Nets: 250, Seed: 71}, 8},
		{"preplaced", gen.Spec{Name: "c", MovableMacros: 5, PreplacedMacros: 4, Pads: 12, Cells: 120, Nets: 200, Seed: 72}, 8},
		{"deep-hier", gen.Spec{Name: "d", MovableMacros: 8, Cells: 150, Nets: 220, Seed: 73, HierDepth: 4, HierFanout: 3}, 8},
		{"coarse-grid", gen.Spec{Name: "e", MovableMacros: 10, Cells: 120, Nets: 200, Seed: 74}, 4},
		{"fine-grid", gen.Spec{Name: "f", MovableMacros: 4, Cells: 100, Nets: 150, Seed: 75}, 16},
		{"one-macro", gen.Spec{Name: "g", MovableMacros: 1, Cells: 80, Nets: 120, Seed: 76}, 8},
		{"macro-heavy", gen.Spec{Name: "h", MovableMacros: 20, Cells: 100, Nets: 250, Seed: 77, MacroAreaFrac: 0.55}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := gen.Generate(tc.spec)
			opts := testOptions()
			opts.Zeta = tc.zeta
			opts.Agent.Zeta = tc.zeta
			opts.RL.Episodes = 10
			opts.RL.CalibrationEpisodes = 5
			p, err := New(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Place()
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			if res.Final.HPWL <= 0 {
				t.Fatal("no placement produced")
			}
			// Anchors legal and complete.
			if len(res.Final.Anchors) != len(p.Shapes) {
				t.Fatalf("anchors = %d, want %d", len(res.Final.Anchors), len(p.Shapes))
			}
			for gi, a := range res.Final.Anchors {
				gx, gy := p.Grid.Coords(a)
				if gx < 0 || gy < 0 || gx+p.Shapes[gi].GW > tc.zeta || gy+p.Shapes[gi].GH > tc.zeta {
					t.Fatalf("anchor %d out of bounds for group %d", a, gi)
				}
			}
			// Macro legality: a clean audit, no movable-macro overlap
			// beyond ulp-sized slivers, nothing outside the region.
			if rep := p.Work.ConstraintViolations(); !rep.Clean() {
				t.Errorf("constraint violations: %s", rep)
			}
			if mo := p.Work.MovableOverlap(); mo > p.Work.ConvergenceEps() {
				t.Errorf("movable-macro overlap %v exceeds %v", mo, p.Work.ConvergenceEps())
			}
			if ov := legalize.MaxMacroOverflow(p.Work); ov > 1e-6 {
				t.Errorf("macro overflow outside region: %v", ov)
			}
			// Pre-placed macros must not have moved.
			for i := range d.Nodes {
				n := &d.Nodes[i]
				if n.Fixed && (p.Work.Nodes[i].X != n.X || p.Work.Nodes[i].Y != n.Y) {
					t.Errorf("fixed node %s moved", n.Name)
				}
			}
		})
	}
}
