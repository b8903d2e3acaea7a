// Package baseline implements the comparison placers of the paper's
// evaluation (Tables II and III):
//
//   - SE — a simulated-evolution macro placer in the style of
//     [24]/[26] (Table II's "SE-based Macro Placer");
//   - DreamPlaceLike — mixed-size analytical placement where macros
//     are just large movable cells (Table II's DREAMPlace column);
//   - RePlAceLike — the analytical flow plus a density-vs-wirelength
//     force refinement of macro positions (Table III's RePlAce);
//   - CT — a pure-RL per-macro placer, no grouping and no MCTS
//     (Table III's circuit-training row);
//   - MaskPlace — a per-macro placer driven by the wiremask
//     incremental-HPWL estimate (Table III's MaskPlace row).
//
// Every baseline ends with the same finishing pass — macro overlap
// removal and a full-netlist analytical cell placement — so Table
// comparisons measure the macro-placement policy, not the finishing
// machinery. The real tools are unavailable (GPU binaries, proprietary
// code); DESIGN.md records how each substitute preserves the trait the
// paper contrasts against.
package baseline

import (
	"context"
	"sort"

	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/legalize"
	"macroplace/internal/netlist"
)

// Result is a completed baseline run.
type Result struct {
	// HPWL is the final full-netlist half-perimeter wirelength.
	HPWL float64
	// MacroOverlap is the residual macro-macro overlap area
	// (Design.MacroOverlap).
	MacroOverlap float64
	// Converged reports whether the finishing legality pass
	// (legalize.EnforceConstraints) reached a clean placement. When
	// false the placement still honors region bounds but may carry
	// residual overlap or constraint violations the pass could not
	// resolve — callers (and the portfolio conformance suite) must not
	// treat the result as legal without checking this.
	Converged bool
}

// Finish runs the one macro legality pass every placer shares
// (legalize.EnforceConstraints: overlap removal plus d.Phys
// halo/channel spacing, fence and snapping) and the final cell
// placement, returning the evaluated result. It mutates d.
func Finish(d *netlist.Design) Result {
	converged := legalize.EnforceConstraints(d)
	gplace.Place(d, gplace.Config{Mode: gplace.MoveCells, Iterations: 6})
	return Result{HPWL: d.HPWL(), MacroOverlap: d.MacroOverlap(), Converged: converged}
}

// cancelled reports whether ctx is non-nil and already done. The
// baselines poll it at loop granularity so cancellation yields the
// best-so-far state instead of aborting.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// macroNetHPWL returns the summed HPWL of the nets incident to node m,
// using current positions.
func macroNetHPWL(d *netlist.Design, nodeNets [][]int, m int) float64 {
	var total float64
	for _, ni := range nodeNets[m] {
		total += d.Nets[ni].EffWeight() * d.NetHPWL(ni)
	}
	return total
}

// macrosByAreaDesc returns movable macro indices sorted by
// non-increasing area (deterministic tie-break by index).
func macrosByAreaDesc(d *netlist.Design) []int {
	ms := d.MovableMacroIndices()
	sort.Slice(ms, func(i, j int) bool {
		ai, aj := d.Nodes[ms[i]].Area(), d.Nodes[ms[j]].Area()
		if ai != aj {
			return ai > aj
		}
		return ms[i] < ms[j]
	})
	return ms
}

// DreamPlaceLike is the analytical mixed-size baseline: one global
// placement treating macros as movable, followed by the common finish.
// It mirrors how the paper invokes DREAMPlace on Table II — no
// hierarchy awareness, wirelength-driven only.
func DreamPlaceLike(d *netlist.Design) Result {
	gplace.Place(d, gplace.Config{Mode: gplace.MoveAll, Iterations: 10})
	return Finish(d)
}

// candidateGrid enumerates k×k candidate centers inside region for a
// node of size w×h.
func candidateGrid(region geom.Rect, w, h float64, k int) []geom.Point {
	var out []geom.Point
	for iy := 0; iy < k; iy++ {
		for ix := 0; ix < k; ix++ {
			cx := region.Lx + (float64(ix)+0.5)*region.W()/float64(k)
			cy := region.Ly + (float64(iy)+0.5)*region.H()/float64(k)
			r := geom.NewRect(cx-w/2, cy-h/2, w, h).ClampInto(region)
			out = append(out, r.Center())
		}
	}
	return out
}
