// Command defcheck re-reads a LEF/DEF pair through the exact converter
// the placer uses and reports what any downstream consumer of that DEF
// observes: the design's HPWL (with its exact float bit pattern, so
// two reads of the same file can be compared bit-for-bit) and a
// constraint audit under the same halo/channel/fence/snap knobs
// mctsplace takes. With no knobs the audit still checks bare macro
// overlap and region containment. It exits nonzero when the placement
// violates the audit — the smoke flow's independent verdict on a
// placed DEF.
//
// Usage:
//
//	defcheck -lef tech.lef -def placed.def
//	defcheck -lef tech.lef -def placed.def -halo 1 -channel 2 -snap -fence "2,2,62,98"
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"macroplace/internal/geom"
	"macroplace/internal/lefdef"
	"macroplace/internal/netlist"
)

func main() {
	var (
		lefF      = flag.String("lef", "", "LEF library (required)")
		defF      = flag.String("def", "", "DEF design to audit (required)")
		haloF     = flag.Float64("halo", 0, "per-side macro halo, microns (both axes unless -halo-y is set)")
		haloYF    = flag.Float64("halo-y", 0, "per-side macro halo on Y (0 = same as -halo)")
		channelF  = flag.Float64("channel", 0, "minimum macro-to-macro channel (both axes unless -channel-y is set)")
		channelYF = flag.Float64("channel-y", 0, "minimum macro channel on Y (0 = same as -channel)")
		fenceF    = flag.String("fence", "", "fence region \"lx,ly,ux,uy\" movable macros must stay inside")
		snapF     = flag.Bool("snap", false, "audit macro origins against the DEF track/row lattice")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "defcheck:", err)
		os.Exit(1)
	}
	if *lefF == "" || *defF == "" {
		fail(fmt.Errorf("-lef and -def are both required"))
	}

	lef, err := lefdef.ParseLEFFile(*lefF)
	if err != nil {
		fail(err)
	}
	doc, err := lefdef.ParseDEFFile(*defF)
	if err != nil {
		fail(err)
	}
	d, err := lefdef.ToDesign(doc, lef)
	if err != nil {
		fail(err)
	}

	phys, err := physFromFlags(*haloF, *haloYF, *channelF, *channelYF, *fenceF)
	if err != nil {
		fail(err)
	}
	if err := lefdef.ApplyPhys(d, phys, doc, lef, *snapF); err != nil {
		fail(err)
	}

	st := d.Stats()
	fmt.Printf("design %s: %d movable macros, %d pre-placed, %d pads, %d cells, %d nets\n",
		d.Name, st.MovableMacros, st.PreplacedMacro, st.Pads, st.Cells, st.Nets)
	h := d.HPWL()
	fmt.Printf("def hpwl:       %.6g (bits %016x)\n", h, math.Float64bits(h))

	rep := d.ConstraintViolations()
	fmt.Printf("constraints:    %s\n", rep)
	if !rep.Clean() {
		fmt.Fprintln(os.Stderr, "defcheck: constraint violations present")
		os.Exit(2)
	}
}

// physFromFlags mirrors mctsplace's flag-to-constraints mapping: nil
// when every knob is zero, -halo-y/-channel-y defaulting to X.
func physFromFlags(halo, haloY, channel, channelY float64, fence string) (*netlist.Constraints, error) {
	if haloY == 0 {
		haloY = halo
	}
	if channelY == 0 {
		channelY = channel
	}
	var fr *geom.Rect
	if fence != "" {
		parts := strings.Split(fence, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("-fence wants \"lx,ly,ux,uy\", got %q", fence)
		}
		var v [4]float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("-fence coordinate %q: %w", p, err)
			}
			v[i] = f
		}
		fr = &geom.Rect{Lx: v[0], Ly: v[1], Ux: v[2], Uy: v[3]}
	}
	if halo == 0 && haloY == 0 && channel == 0 && channelY == 0 && fr == nil {
		return nil, nil
	}
	return &netlist.Constraints{
		HaloX: halo, HaloY: haloY,
		ChannelX: channel, ChannelY: channelY,
		Fence: fr,
	}, nil
}
