// Command mctsplace runs the full MCTS-guided-by-pretrained-RL macro
// placement flow on a benchmark — either a Bookshelf .aux file or a
// named synthetic benchmark — and reports per-stage statistics and the
// final HPWL. With -out it writes the placed design back as Bookshelf
// files.
//
// The run layer is fault-tolerant: SIGINT/SIGTERM or -timeout stop the
// flow gracefully — the search commits its best-so-far allocation and
// the result is still a complete legal placement (marked interrupted).
// With -checkpoint the search progress is saved crash-safely every
// -checkpoint-every commit steps; -resume continues from that file.
//
// Usage:
//
//	mctsplace -bench ibm01 -scale 0.05 -episodes 120 -gamma 24
//	mctsplace -aux path/to/ibm01.aux -out placed/ -episodes 200
//	mctsplace -bench ibm06 -timeout 2m -svg anytime.svg
//	mctsplace -bench ibm06 -checkpoint search.json -checkpoint-every 2
//	mctsplace -bench ibm06 -checkpoint search.json -resume
//
// With -portfolio the command races several placement backends (the
// paper's flow plus the baseline placers, all behind one interface —
// see DESIGN.md §11) and keeps the best legal placement:
//
//	mctsplace -bench ibm01 -portfolio all -effort 0.2
//	mctsplace -bench ibm06 -portfolio mcts,se,mincut -race-grace 5s -svg winner.svg
//
// With -lef/-def the command places a real design read from LEF/DEF
// instead, honouring the physical constraints the -halo, -channel,
// -fence and -snap knobs describe, and -defout writes the placed
// components back into the same DEF (see DESIGN.md §15):
//
//	mctsplace -lef tech.lef -def chip.def -halo 1 -channel 2 -snap -defout placed.def
//	mctsplace -bench ibm01 -defout placed.def -dbu 1000   # synthesizes placed.lef too
//
// With -eco the command re-places incrementally from a prior placement
// (persisted by -saveplacement) under a netlist delta, instead of
// running the full flow (see DESIGN.md §14):
//
//	mctsplace -bench ibm01 -saveplacement prior.json
//	mctsplace -bench ibm01 -eco -prior prior.json -delta delta.json -eco-moves 128
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"macroplace"
	"macroplace/internal/eco"
	"macroplace/internal/lefdef"
	"macroplace/internal/serve"
)

func main() {
	var (
		aux        = flag.String("aux", "", "Bookshelf .aux file to place")
		bench      = flag.String("bench", "", "synthetic benchmark name (ibm01..ibm18, cir1..cir6)")
		lefF       = flag.String("lef", "", "LEF library (sites, layers, macro geometry); use with -def")
		defF       = flag.String("def", "", "DEF design to place (die area, rows, components, pins, nets); use with -lef")
		defOut     = flag.String("defout", "", "file to write the placed design back as DEF; with -aux/-bench inputs the design is synthesized at -dbu and a sibling .lef is written next to it")
		dbuF       = flag.Int("dbu", 1000, "DEF database units per micron when -defout synthesizes from a non-DEF input")
		haloF      = flag.Float64("halo", 0, "per-side macro halo, design units (both axes unless -halo-y is set)")
		haloYF     = flag.Float64("halo-y", 0, "per-side macro halo on Y (0 = same as -halo)")
		channelF   = flag.Float64("channel", 0, "minimum macro-to-macro channel (both axes unless -channel-y is set)")
		channelYF  = flag.Float64("channel-y", 0, "minimum macro channel on Y (0 = same as -channel)")
		fenceF     = flag.String("fence", "", "fence region \"lx,ly,ux,uy\" confining movable macros (with their halos)")
		snapF      = flag.Bool("snap", false, "snap macro origins to the DEF track/row lattice (requires -def)")
		scale      = flag.Float64("scale", 0.05, "synthetic benchmark scale (1 = paper-sized)")
		seed       = flag.Int64("seed", 1, "random seed")
		zeta       = flag.Int("zeta", 16, "grid resolution ζ")
		episodes   = flag.Int("episodes", 120, "RL pre-training episodes")
		gamma      = flag.Int("gamma", 24, "MCTS explorations per macro group")
		workers    = flag.Int("workers", 0, "parallel MCTS workers (0 = all CPUs, 1 = sequential/deterministic)")
		channels   = flag.Int("channels", 16, "agent tower width (paper: 128)")
		resblocks  = flag.Int("resblocks", 2, "agent tower depth (paper: 10)")
		out        = flag.String("out", "", "directory to write the placed design as Bookshelf files")
		svg        = flag.String("svg", "", "file to render the final placement as SVG")
		saveAgent  = flag.String("saveagent", "", "file to checkpoint the pre-trained agent to")
		loadAgent  = flag.String("loadagent", "", "agent checkpoint to load (skips RL pre-training)")
		ecoMode    = flag.Bool("eco", false, "ECO mode: incrementally re-place from -prior under -delta with a short local-move search instead of the full flow")
		priorF     = flag.String("prior", "", "prior placement.json for -eco (from a previous run's -saveplacement, or a daemon job's placement.json)")
		deltaF     = flag.String("delta", "", "netlist delta JSON (add/drop/reweight nets); applied before the full flow, or searched under in -eco mode")
		ecoMoves   = flag.Int("eco-moves", 0, "ECO local-move probe budget (0 = default 128)")
		ecoRuns    = flag.Int("eco-runs", 1, "repeat the ECO run this many times against the in-process warm store (later runs skip training and hit the eval cache)")
		ecoRetrain = flag.Bool("eco-retrain", false, "force retraining in ECO mode even when warm state exists (retargets the warm entry's cache)")
		savePlace  = flag.String("saveplacement", "", "file to persist the final movable-macro placement to (the prior a later -eco run consumes)")
		portfolioF = flag.String("portfolio", "", "race these backends instead of running the single flow (comma-separated, or \"all\"); the best legal placement wins")
		effort     = flag.Float64("effort", 0, "portfolio backend budget scale in (0,1] (0 = full budget)")
		raceGrace  = flag.Duration("race-grace", 0, "cancel race losers this long after the first finisher (0 = run every backend to completion, deterministic)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget; on expiry the flow returns its best-so-far placement (0 = none)")
		checkpoint = flag.String("checkpoint", "", "file to save crash-safe MCTS search snapshots to")
		ckptEvery  = flag.Int("checkpoint-every", 1, "commit steps between search snapshots")
		resume     = flag.Bool("resume", false, "resume the MCTS stage from the -checkpoint file")
		freshRoot  = flag.Bool("fresh-root", false, "rebuild the search tree after every commit; slower, but makes each step a pure function of the committed prefix, so resuming any checkpoint is bit-identical to the uninterrupted run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole flow to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		telemetry  = flag.String("telemetry-addr", "", "serve /metrics, /healthz and pprof on this address (e.g. :6060; empty = off)")
		runSummary = flag.String("run-summary", "", "write a JSON metric snapshot to this file at exit (crash-safe, includes interrupted runs)")
	)
	flag.Parse()

	// Run-level fields accumulate through the flow; the summary is
	// written on every exit path below (including failures and
	// interruption), always atomically.
	runFields := map[string]any{"command": "mctsplace", "interrupted": false}
	writeSummary := func() {
		if *runSummary == "" {
			return
		}
		if err := macroplace.WriteRunSummary(*runSummary, runFields); err != nil {
			fmt.Fprintln(os.Stderr, "mctsplace: run-summary:", err)
		}
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mctsplace:", err)
		runFields["error"] = err.Error()
		writeSummary()
		os.Exit(1)
	}

	if *telemetry != "" {
		srv, err := macroplace.StartTelemetry(*telemetry)
		if err != nil {
			fail(err)
		}
		// Bounded graceful drain: a scrape or pprof capture that is
		// mid-body when the run ends still completes (obs.Shutdown
		// falls back to Close at the deadline).
		defer srv.ShutdownTimeout(10 * time.Second)
		fmt.Printf("telemetry: http://%s/metrics\n", srv.Addr)
	}

	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer stop()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeMemProfile(*memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "mctsplace:", err)
			}
		}()
	}

	// SIGINT/SIGTERM cancel the context; every stage degrades
	// gracefully instead of dying mid-write (the anytime property). A
	// second signal force-exits 130 after flushing the run summary, so
	// a hung finalize never needs SIGKILL.
	ctx, stop := serve.Signals(context.Background(), func() {
		runFields["interrupted"] = true
		runFields["forced"] = true
		writeSummary()
		fmt.Fprintln(os.Stderr, "mctsplace: forced exit")
	})
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	d, doc, lefLib, err := loadDesignAny(*aux, *bench, *lefF, *defF, *scale, *seed)
	if err != nil {
		fail(err)
	}
	phys, err := physFromFlags(*haloF, *haloYF, *channelF, *channelYF, *fenceF)
	if err != nil {
		fail(err)
	}
	if err := lefdef.ApplyPhys(d, phys, doc, lefLib, *snapF); err != nil {
		fail(err)
	}
	runFields["design"] = d.Name
	stats := d.Stats()
	fmt.Printf("design %s: %d movable macros, %d pre-placed, %d pads, %d cells, %d nets\n",
		d.Name, stats.MovableMacros, stats.PreplacedMacro, stats.Pads, stats.Cells, stats.Nets)

	delta, err := loadDelta(*deltaF)
	if err != nil {
		fail(err)
	}
	if delta != nil && !*ecoMode {
		// Full-flow (scratch) runs place the post-delta netlist directly,
		// so an ECO result can be compared against a from-scratch run of
		// the same changed design at equal budget.
		if err := delta.Apply(d); err != nil {
			fail(err)
		}
		fmt.Printf("applied delta: +%d nets, -%d nets, %d reweighted\n",
			len(delta.AddNets), len(delta.DropNets), len(delta.Reweight))
	}

	if *portfolioF != "" {
		racePortfolio(ctx, d, raceFlags{
			backends: *portfolioF, effort: *effort, grace: *raceGrace,
			seed: *seed, zeta: *zeta, episodes: *episodes, gamma: *gamma,
			workers: *workers, channels: *channels, resblocks: *resblocks,
			out: *out, svg: *svg, defOut: *defOut, doc: doc, lef: lefLib, dbu: *dbuF,
		}, runFields, writeSummary, fail)
		writeSummary()
		return
	}

	opts := macroplace.DefaultOptions()
	opts.Zeta = *zeta
	opts.Seed = *seed
	opts.RL.Episodes = *episodes
	opts.MCTS.Gamma = *gamma
	opts.MCTS.Workers = *workers
	opts.MCTS.FreshRoot = *freshRoot
	opts.Agent = macroplace.AgentConfig{Zeta: *zeta, Channels: *channels, ResBlocks: *resblocks, Seed: *seed + 100}
	opts.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mctsplace: "+format+"\n", args...)
	}

	if *ecoMode {
		runEco(ctx, d, delta, ecoFlags{
			prior: *priorF, moves: *ecoMoves, runs: *ecoRuns,
			retrain: *ecoRetrain, savePlacement: *savePlace,
			defOut: *defOut, doc: doc, lef: lefLib, dbu: *dbuF,
		}, opts, runFields, writeSummary, fail)
		return
	}

	if *checkpoint != "" {
		every := *ckptEvery
		if every < 1 {
			every = 1
		}
		commits := 0
		opts.SearchSnapshot = func(sn macroplace.SearchSnapshot) {
			commits++
			if commits%every != 0 {
				return
			}
			if err := macroplace.SaveSearchSnapshot(*checkpoint, sn); err != nil {
				fmt.Fprintln(os.Stderr, "mctsplace: checkpoint:", err)
			}
		}
	}

	p, err := macroplace.NewPlacer(d, opts)
	if err != nil {
		fail(err)
	}
	if *resume {
		if *checkpoint == "" {
			fail(fmt.Errorf("-resume requires -checkpoint"))
		}
		if err := p.Preprocess(); err != nil {
			fail(err)
		}
		snap, err := macroplace.LoadSearchSnapshot(*checkpoint)
		if err != nil {
			fail(fmt.Errorf("resume: %w", err))
		}
		if err := snap.Check(p.Env); err != nil {
			fail(fmt.Errorf("resume: snapshot does not fit this design/config: %w", err))
		}
		p.Opts.SearchResume = snap
		fmt.Printf("resuming search from %s (%d/%d groups committed)\n",
			*checkpoint, len(snap.Committed), p.Env.NumSteps())
	}

	var res *macroplace.Result
	start := time.Now()
	if *loadAgent != "" {
		// Pre-trained agent: skip RL, search directly.
		if err := p.Preprocess(); err != nil {
			fail(err)
		}
		ag, err := macroplace.LoadAgent(*loadAgent)
		if err != nil {
			fail(err)
		}
		p.Agent.CopyWeightsFrom(ag)
		search := p.RunMCTSContext(ctx)
		final, err := p.FinalizeContext(ctx, search.Anchors)
		if err != nil {
			fail(err)
		}
		res = &macroplace.Result{Final: final, RLFinal: final, Search: search, Times: p.Times()}
	} else {
		res, err = p.PlaceContext(ctx)
		if err != nil {
			fail(err)
		}
	}
	if res.Search.Interrupted || ctx.Err() != nil {
		runFields["interrupted"] = true
		fmt.Printf("interrupted after %s (%v): reporting best-so-far placement\n",
			time.Since(start).Round(time.Millisecond), context.Cause(ctx))
	}
	runFields["hpwl"] = res.Final.HPWL
	runFields["rl_hpwl"] = res.RLFinal.HPWL
	runFields["macro_overlap"] = res.Final.MacroOverlap
	runFields["explorations"] = res.Search.Explorations
	runFields["wall_seconds"] = time.Since(start).Seconds()
	defer writeSummary()
	if *saveAgent != "" {
		if err := p.Agent.SaveFile(*saveAgent); err != nil {
			fail(err)
		}
		fmt.Printf("saved agent checkpoint to %s\n", *saveAgent)
	}
	if *savePlace != "" {
		if err := eco.WritePlacement(*savePlace, p.Work); err != nil {
			fail(err)
		}
		fmt.Printf("saved placement to %s\n", *savePlace)
	}

	fmt.Printf("RL-only HPWL:   %.6g\n", res.RLFinal.HPWL)
	fmt.Printf("MCTS HPWL:      %.6g\n", res.Final.HPWL)
	fmt.Printf("macro overlap:  %.6g\n", res.Final.MacroOverlap)
	fmt.Printf("explorations:   %d (terminal placements: %d)\n",
		res.Search.Explorations, res.Search.TerminalEvals)
	if total := res.Search.CacheHits + res.Search.CacheMisses; total > 0 {
		fmt.Printf("eval cache:     %d hits / %d misses (%.1f%% hit rate)\n",
			res.Search.CacheHits, res.Search.CacheMisses,
			100*float64(res.Search.CacheHits)/float64(total))
	}
	if res.Search.WorkerPanics > 0 {
		fmt.Printf("recovered:      %d worker panics\n", res.Search.WorkerPanics)
	}
	fmt.Printf("stage times:    preprocess=%s pretrain=%s mcts=%s finalize=%s\n",
		res.Times.Preprocess.Round(1e6), res.Times.Pretrain.Round(1e6),
		res.Times.MCTS.Round(1e6), res.Times.Finalize.Round(1e6))

	fmt.Printf("quality:        %s\n", macroplace.MeasureQuality(p.Work))
	reportConstraints(p.Work)

	if *out != "" {
		if err := macroplace.WriteBookshelf(p.Work, *out, d.Name); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s/%s.{nodes,nets,pl,scl,aux}\n", *out, d.Name)
	}
	if *svg != "" {
		if err := macroplace.SaveSVG(*svg, p.Work, macroplace.SVGOptions{ShowGrid: true, Zeta: *zeta}); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *svg)
	}
	if *defOut != "" {
		if err := writeDEFOut(*defOut, p.Work, doc, lefLib, *dbuF); err != nil {
			fail(err)
		}
	}
}

func loadDesign(aux, bench string, scale float64, seed int64) (*macroplace.Design, error) {
	switch {
	case aux != "":
		return macroplace.ReadBookshelf(aux)
	case strings.HasPrefix(bench, "ibm"):
		return macroplace.GenerateIBM(bench, scale, seed)
	case strings.HasPrefix(bench, "cir"):
		return macroplace.GenerateCir(bench, scale, seed)
	case bench == "":
		return nil, fmt.Errorf("one of -aux or -bench is required")
	default:
		return nil, fmt.Errorf("unknown benchmark %q (want ibm01..ibm18 or cir1..cir6)", bench)
	}
}
