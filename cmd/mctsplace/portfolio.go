package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"macroplace"
	"macroplace/internal/lefdef"
)

// raceFlags bundles the CLI flags the -portfolio mode consumes.
type raceFlags struct {
	backends  string
	effort    float64
	grace     time.Duration
	seed      int64
	zeta      int
	episodes  int
	gamma     int
	workers   int
	channels  int
	resblocks int
	out       string
	svg       string
	defOut    string
	doc       *lefdef.Document
	lef       *lefdef.LEF
	dbu       int
}

// racePortfolio is the -portfolio mode: the named backends race on the
// design under the run's context, the cross-backend incumbent stream
// prints live, and the winner's placement feeds -out/-svg exactly like
// a single-flow run.
func racePortfolio(ctx context.Context, d *macroplace.Design, f raceFlags,
	runFields map[string]any, writeSummary func(), fail func(error)) {
	lineup := strings.Split(f.backends, ",")
	if f.backends == "all" {
		lineup = macroplace.PortfolioBackends()
	}
	cfg := macroplace.RaceConfig{
		Backends: lineup,
		Opts: macroplace.PortfolioOptions{
			Seed: f.seed, Zeta: f.zeta, Effort: f.effort,
			Workers: f.workers, Channels: f.channels, ResBlocks: f.resblocks,
			Episodes: f.episodes, Gamma: f.gamma,
		},
		Grace: f.grace,
		OnIncumbent: func(inc macroplace.PortfolioIncumbent) {
			fmt.Fprintf(os.Stderr, "mctsplace: incumbent %s hpwl=%.6g\n", inc.Backend, inc.HPWL)
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mctsplace: "+format+"\n", args...)
		},
	}
	start := time.Now()
	rr, err := macroplace.RaceBackends(ctx, d, cfg)
	if err != nil {
		fail(err)
	}
	win := rr.WinnerOutcome()

	fmt.Printf("%-10s %12s %12s %10s %9s %s\n", "backend", "hpwl", "overlap", "wall", "converged", "note")
	for _, o := range rr.Outcomes {
		note := ""
		switch {
		case o.Err != "":
			note = "error: " + o.Err
		case o.Cancelled:
			note = "cancelled (dominated)"
		case o.Interrupted:
			note = "interrupted"
		}
		if o.Backend == rr.Winner {
			note = strings.TrimSpace("WINNER " + note)
		}
		if o.Err != "" {
			fmt.Printf("%-10s %12s %12s %9.2fs %9s %s\n", o.Backend, "-", "-", o.WallSeconds, "-", note)
			continue
		}
		fmt.Printf("%-10s %12.6g %12.6g %9.2fs %9v %s\n",
			o.Backend, o.HPWL, o.MacroOverlap, o.WallSeconds, o.Converged, note)
	}
	fmt.Printf("winner: %s hpwl=%.6g (%d backends, %s)\n",
		rr.Winner, win.HPWL, len(rr.Outcomes), time.Since(start).Round(time.Millisecond))

	runFields["winner"] = rr.Winner
	runFields["hpwl"] = win.HPWL
	runFields["macro_overlap"] = win.MacroOverlap
	runFields["wall_seconds"] = time.Since(start).Seconds()
	if win.Interrupted || ctx.Err() != nil {
		runFields["interrupted"] = true
	}

	fmt.Printf("quality:        %s\n", macroplace.MeasureQuality(win.Placed))
	reportConstraints(win.Placed)
	if f.out != "" {
		if err := macroplace.WriteBookshelf(win.Placed, f.out, d.Name); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s/%s.{nodes,nets,pl,scl,aux}\n", f.out, d.Name)
	}
	if f.svg != "" {
		if err := macroplace.SaveSVG(f.svg, win.Placed, macroplace.SVGOptions{ShowGrid: true, Zeta: f.zeta}); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", f.svg)
	}
	if f.defOut != "" {
		if err := writeDEFOut(f.defOut, win.Placed, f.doc, f.lef, f.dbu); err != nil {
			fail(err)
		}
	}
}
