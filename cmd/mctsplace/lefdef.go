package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"

	"macroplace"
	"macroplace/internal/geom"
	"macroplace/internal/lefdef"
	"macroplace/internal/netlist"
)

// loadDesignAny resolves the design from whichever input source the
// flags name: a LEF/DEF pair (returning the parsed document and
// library alongside, so the placed result can be written back into the
// same DEF), a Bookshelf .aux, or a synthetic benchmark. Exactly one
// source must be given.
func loadDesignAny(aux, bench, lefPath, defPath string, scale float64, seed int64) (*macroplace.Design, *lefdef.Document, *lefdef.LEF, error) {
	if (lefPath == "") != (defPath == "") {
		return nil, nil, nil, fmt.Errorf("-lef and -def must be given together")
	}
	if lefPath != "" {
		if aux != "" || bench != "" {
			return nil, nil, nil, fmt.Errorf("-lef/-def cannot be combined with -aux or -bench")
		}
		lef, err := lefdef.ParseLEFFile(lefPath)
		if err != nil {
			return nil, nil, nil, err
		}
		doc, err := lefdef.ParseDEFFile(defPath)
		if err != nil {
			return nil, nil, nil, err
		}
		d, err := lefdef.ToDesign(doc, lef)
		if err != nil {
			return nil, nil, nil, err
		}
		return d, doc, lef, nil
	}
	d, err := loadDesign(aux, bench, scale, seed)
	return d, nil, nil, err
}

// parseFence parses the -fence flag's "lx,ly,ux,uy" form.
func parseFence(s string) (*geom.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return nil, fmt.Errorf("-fence wants \"lx,ly,ux,uy\", got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-fence coordinate %q: %w", p, err)
		}
		v[i] = f
	}
	return &geom.Rect{Lx: v[0], Ly: v[1], Ux: v[2], Uy: v[3]}, nil
}

// physFromFlags builds the constraint overlay the -halo/-channel/-fence
// knobs describe, or nil when every knob is at its zero default (so
// constraint-free runs stay bit-identical to builds without these
// flags). -halo-y and -channel-y default to their X counterparts.
func physFromFlags(halo, haloY, channel, channelY float64, fence string) (*netlist.Constraints, error) {
	if haloY == 0 {
		haloY = halo
	}
	if channelY == 0 {
		channelY = channel
	}
	var fr *geom.Rect
	if fence != "" {
		var err error
		fr, err = parseFence(fence)
		if err != nil {
			return nil, err
		}
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

// writeDEFOut writes the placed design to path as DEF. When the run
// started from a LEF/DEF pair the original document is updated in
// place (components moved, everything else verbatim); otherwise a
// document and companion .lef are synthesized at dbu database units
// per micron and the library lands next to the DEF. Either way the
// written file is immediately re-parsed and its HPWL printed with its
// exact bit pattern — that is the value any downstream DEF consumer
// observes, and the smoke flow compares it bit-for-bit against an
// independent re-read.
func writeDEFOut(path string, placed *macroplace.Design, doc *lefdef.Document, lefLib *lefdef.LEF, dbu int) error {
	work := placed.Clone()
	if doc != nil {
		if err := lefdef.SnapToDBU(work, doc.DBU); err != nil {
			return err
		}
		if err := lefdef.UpdateFromDesign(doc, work); err != nil {
			return err
		}
		if err := lefdef.WriteDEFFile(path, doc); err != nil {
			return err
		}
	} else {
		if dbu < 1 {
			dbu = 1000
		}
		if err := lefdef.SnapToDBU(work, dbu); err != nil {
			return err
		}
		sdoc, slef, err := lefdef.Synthesize(work, dbu)
		if err != nil {
			return err
		}
		lefPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".lef"
		if err := lefdef.WriteLEFFile(lefPath, slef); err != nil {
			return err
		}
		if err := lefdef.WriteDEFFile(path, sdoc); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", lefPath)
		lefLib = slef
	}
	rdoc, err := lefdef.ParseDEFFile(path)
	if err != nil {
		return fmt.Errorf("re-read written DEF: %w", err)
	}
	rd, err := lefdef.ToDesign(rdoc, lefLib)
	if err != nil {
		return fmt.Errorf("re-read written DEF: %w", err)
	}
	h := rd.HPWL()
	fmt.Printf("wrote %s\n", path)
	fmt.Printf("def hpwl:       %.6g (bits %016x)\n", h, math.Float64bits(h))
	return nil
}

// reportConstraints prints the placement's constraint audit (bare
// macro overlap and region containment when no constraints are set).
func reportConstraints(placed *macroplace.Design) {
	fmt.Printf("constraints:    %s\n", placed.ConstraintViolations())
}
