package baseline

import (
	"math"
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

func benchDesign(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	d, err := gen.IBM("ibm01", 0.02, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func cirDesign(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	d, err := gen.Cir("cir1", 0.003, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkResult verifies the baseline contract: positive HPWL, a clean
// legality audit (macros inside the region, no overlap beyond
// ulp-sized slivers), and a truthful overlap report.
func checkResult(t *testing.T, name string, d *netlist.Design, res Result) {
	t.Helper()
	if res.HPWL <= 0 {
		t.Fatalf("%s: HPWL = %v", name, res.HPWL)
	}
	if rep := d.ConstraintViolations(); !rep.Clean() {
		t.Errorf("%s: constraint violations: %s", name, rep)
	}
	if mo := d.MovableOverlap(); mo > d.ConvergenceEps() {
		t.Errorf("%s: movable-macro overlap %v exceeds %v", name, mo, d.ConvergenceEps())
	}
	if !res.Converged {
		t.Errorf("%s: did not converge", name)
	}
	if got := d.MacroOverlap(); got != res.MacroOverlap {
		t.Errorf("%s: reported overlap %v != recomputed %v", name, res.MacroOverlap, got)
	}
}

func TestDreamPlaceLike(t *testing.T) {
	d := benchDesign(t, 1)
	random := d.HPWL()
	res := DreamPlaceLike(d)
	checkResult(t, "dreamplace", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestSE(t *testing.T) {
	d := cirDesign(t, 2)
	random := d.HPWL()
	res := SE(d, SEConfig{Generations: 10, Candidates: 8, Seed: 3})
	checkResult(t, "se", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestSEDeterministic(t *testing.T) {
	r1 := SE(cirDesign(t, 4), SEConfig{Generations: 6, Candidates: 8, Seed: 5})
	r2 := SE(cirDesign(t, 4), SEConfig{Generations: 6, Candidates: 8, Seed: 5})
	if r1.HPWL != r2.HPWL {
		t.Errorf("SE not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}

func TestRePlAceLike(t *testing.T) {
	d := benchDesign(t, 6)
	random := d.HPWL()
	res := RePlAceLike(d, RePlAceConfig{Rounds: 10})
	checkResult(t, "replace", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestCT(t *testing.T) {
	d := benchDesign(t, 7)
	random := d.HPWL()
	res := CT(d, CTConfig{Zeta: 8, Episodes: 15, Seed: 8})
	checkResult(t, "ct", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestMaskPlace(t *testing.T) {
	d := benchDesign(t, 9)
	random := d.HPWL()
	res := MaskPlace(d, MaskPlaceConfig{Zeta: 8, Restarts: 4, Seed: 10})
	checkResult(t, "maskplace", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestMaskPlaceDeterministic(t *testing.T) {
	r1 := MaskPlace(benchDesign(t, 11), MaskPlaceConfig{Zeta: 8, Restarts: 3, Seed: 12})
	r2 := MaskPlace(benchDesign(t, 11), MaskPlaceConfig{Zeta: 8, Restarts: 3, Seed: 12})
	if r1.HPWL != r2.HPWL {
		t.Errorf("MaskPlace not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}

func TestFinishSeparatesOverlappingMacros(t *testing.T) {
	d := &netlist.Design{Name: "ov", Region: geom.NewRect(0, 0, 40, 40)}
	d.AddNode(netlist.Node{Name: "a", Kind: netlist.Macro, W: 6, H: 6, X: 10, Y: 10})
	d.AddNode(netlist.Node{Name: "b", Kind: netlist.Macro, W: 6, H: 6, X: 12, Y: 12})
	d.AddNode(netlist.Node{Name: "f", Kind: netlist.Macro, Fixed: true, W: 6, H: 6, X: 14, Y: 8})
	d.AddNode(netlist.Node{Name: "c", Kind: netlist.Cell, W: 1, H: 1, X: 0, Y: 0})
	d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: 0}, {Node: 3}}})
	res := Finish(d)
	if res.MacroOverlap > 1e-9 {
		t.Errorf("Finish left overlap %v", res.MacroOverlap)
	}
	// Fixed macro must not move.
	if d.Nodes[2].X != 14 || d.Nodes[2].Y != 8 {
		t.Error("Finish moved a fixed macro")
	}
}

func TestMacrosByAreaDesc(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 10, 10)}
	d.AddNode(netlist.Node{Name: "s", Kind: netlist.Macro, W: 1, H: 1})
	d.AddNode(netlist.Node{Name: "l", Kind: netlist.Macro, W: 3, H: 3})
	d.AddNode(netlist.Node{Name: "f", Kind: netlist.Macro, Fixed: true, W: 9, H: 9})
	ms := macrosByAreaDesc(d)
	if len(ms) != 2 || ms[0] != 1 || ms[1] != 0 {
		t.Errorf("order = %v, want [1 0] (fixed excluded)", ms)
	}
}

func TestCandidateGridInBounds(t *testing.T) {
	region := geom.NewRect(0, 0, 100, 50)
	for _, c := range candidateGrid(region, 20, 10, 8) {
		r := geom.NewRect(c.X-10, c.Y-5, 20, 10)
		if !region.ContainsRect(r) {
			t.Errorf("candidate %v places node outside region", c)
		}
	}
}

func TestBaselineOrderingOnSharedBenchmark(t *testing.T) {
	// Sanity: the analytical methods shouldn't differ by orders of
	// magnitude on the same netlist — they share the finishing pass.
	d := benchDesign(t, 13)
	dp := DreamPlaceLike(d.Clone())
	rp := RePlAceLike(d.Clone(), RePlAceConfig{Rounds: 10})
	ratio := dp.HPWL / rp.HPWL
	if math.IsNaN(ratio) || ratio < 0.2 || ratio > 5 {
		t.Errorf("suspicious HPWL ratio dreamplace/replace = %v", ratio)
	}
}

func TestSA(t *testing.T) {
	d := benchDesign(t, 14)
	random := d.HPWL()
	res := SA(d, SAConfig{Iterations: 400, Seed: 15})
	checkResult(t, "sa", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestSADeterministic(t *testing.T) {
	r1 := SA(benchDesign(t, 16), SAConfig{Iterations: 200, Seed: 17})
	r2 := SA(benchDesign(t, 16), SAConfig{Iterations: 200, Seed: 17})
	if r1.HPWL != r2.HPWL {
		t.Errorf("SA not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}

func TestSABTree(t *testing.T) {
	d := benchDesign(t, 18)
	random := d.HPWL()
	res := SABTree(d, SAConfig{Iterations: 300, Seed: 19})
	checkResult(t, "sabtree", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestSABTreeDeterministic(t *testing.T) {
	r1 := SABTree(benchDesign(t, 20), SAConfig{Iterations: 150, Seed: 21})
	r2 := SABTree(benchDesign(t, 20), SAConfig{Iterations: 150, Seed: 21})
	if r1.HPWL != r2.HPWL {
		t.Errorf("SABTree not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}

func TestMinCut(t *testing.T) {
	d := benchDesign(t, 22)
	random := d.HPWL()
	res := MinCut(d, MinCutConfig{Seed: 23})
	checkResult(t, "mincut", d, res)
	if res.HPWL >= random {
		t.Errorf("HPWL %v did not improve over random %v", res.HPWL, random)
	}
}

func TestMinCutDeterministic(t *testing.T) {
	r1 := MinCut(benchDesign(t, 24), MinCutConfig{Seed: 25})
	r2 := MinCut(benchDesign(t, 24), MinCutConfig{Seed: 25})
	if r1.HPWL != r2.HPWL {
		t.Errorf("MinCut not deterministic: %v vs %v", r1.HPWL, r2.HPWL)
	}
}
