package portfolio

import (
	"context"
	"fmt"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/baseline"
	"macroplace/internal/core"
	"macroplace/internal/legalize"
	"macroplace/internal/netlist"
)

// Backend name constants, as registered.
const (
	BackendMCTS      = "mcts"
	BackendSE        = "se"
	BackendCT        = "ct"
	BackendMaskPlace = "maskplace"
	BackendRePlAce   = "replace"
	BackendMinCut    = "mincut"
	BackendSABTree   = "sabtree"
)

func init() {
	Register(&adapter{
		name: BackendMCTS,
		caps: Caps{Deterministic: true, Anytime: true, Streaming: true, UsesEvaluator: true, Eco: true},
		run:  runMCTSBackend,
	})
	Register(&adapter{
		name: BackendSE,
		caps: Caps{Deterministic: true, Anytime: true, Streaming: true},
		run: func(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (Result, error) {
			cfg := baseline.SEConfig{
				Generations: scaleBudget(40, opts.effort(), 2),
				Candidates:  opts.Zeta,
				Seed:        opts.Seed,
				Ctx:         ctx,
				Progress:    func(wl float64) { emit(wl, true) },
			}
			return finishBaseline(ctx, d, func(work *netlist.Design) baseline.Result {
				return baseline.SE(work, cfg)
			})
		},
	})
	Register(&adapter{
		name: BackendCT,
		caps: Caps{Deterministic: true, Anytime: true},
		run: func(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (Result, error) {
			cfg := baseline.CTConfig{
				Zeta:     opts.Zeta,
				Episodes: scaleBudget(150, opts.effort(), 2),
				Seed:     opts.Seed,
				Ctx:      ctx,
			}
			if opts.Channels > 0 {
				cfg.Agent = agent.Config{
					Zeta:      opts.Zeta,
					Channels:  opts.Channels,
					ResBlocks: opts.ResBlocks,
					Seed:      opts.Seed + 3,
				}
			}
			return finishBaseline(ctx, d, func(work *netlist.Design) baseline.Result {
				return baseline.CT(work, cfg)
			})
		},
	})
	Register(&adapter{
		name: BackendMaskPlace,
		caps: Caps{Deterministic: true, Anytime: true, Streaming: true},
		run: func(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (Result, error) {
			cfg := baseline.MaskPlaceConfig{
				Zeta:     opts.Zeta,
				Restarts: scaleBudget(8, opts.effort(), 1),
				Seed:     opts.Seed,
				Ctx:      ctx,
				Progress: func(wl float64) { emit(wl, true) },
			}
			return finishBaseline(ctx, d, func(work *netlist.Design) baseline.Result {
				return baseline.MaskPlace(work, cfg)
			})
		},
	})
	Register(&adapter{
		name: BackendRePlAce,
		caps: Caps{Deterministic: true, Anytime: true},
		run: func(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (Result, error) {
			cfg := baseline.RePlAceConfig{
				Rounds: scaleBudget(30, opts.effort(), 3),
				Bins:   opts.Zeta,
				Ctx:    ctx,
			}
			return finishBaseline(ctx, d, func(work *netlist.Design) baseline.Result {
				return baseline.RePlAceLike(work, cfg)
			})
		},
	})
	Register(&adapter{
		name: BackendMinCut,
		caps: Caps{Deterministic: true, Anytime: true},
		run: func(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (Result, error) {
			cfg := baseline.MinCutConfig{Seed: opts.Seed, Ctx: ctx}
			return finishBaseline(ctx, d, func(work *netlist.Design) baseline.Result {
				return baseline.MinCut(work, cfg)
			})
		},
	})
	Register(&adapter{
		name: BackendSABTree,
		caps: Caps{Deterministic: true, Anytime: true, Streaming: true},
		run: func(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (Result, error) {
			cfg := baseline.SAConfig{
				Iterations: scaleBudget(4000, opts.effort(), 50),
				Seed:       opts.Seed,
				Ctx:        ctx,
				Progress:   func(cost float64) { emit(cost, true) },
			}
			return finishBaseline(ctx, d, func(work *netlist.Design) baseline.Result {
				return baseline.SABTree(work, cfg)
			})
		},
	})
}

// emitFunc forwards an incumbent value from a backend run; the adapter
// layers the monotone filter and the Incumbent envelope on top.
type emitFunc func(value float64, estimate bool)

// adapter implements Placer over a run function, centralising input
// protection (clone, never mutate d), panic containment, monotone
// incumbent streaming, and wall-time accounting.
type adapter struct {
	name string
	caps Caps
	run  func(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (Result, error)
}

func (a *adapter) Name() string { return a.name }
func (a *adapter) Caps() Caps   { return a.caps }

func (a *adapter) PlaceContext(ctx context.Context, d *netlist.Design, opts Options) (Result, error) {
	if d == nil {
		return Result{}, fmt.Errorf("portfolio: %s: nil design", a.name)
	}
	if err := d.Validate(); err != nil {
		return Result{}, fmt.Errorf("portfolio: %s: %w", a.name, err)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()

	// Monotone incumbent filter, per Estimate class: backends may emit
	// non-improving values (e.g. a final worse than an intermediate);
	// consumers see only strict improvements.
	bestExact, bestEst := false, false
	var minExact, minEst float64
	emit := func(v float64, estimate bool) {
		if opts.OnIncumbent == nil {
			return
		}
		best, minV := &bestExact, &minExact
		if estimate {
			best, minV = &bestEst, &minEst
		}
		if *best && v >= *minV {
			return
		}
		*best, *minV = true, v
		opts.OnIncumbent(Incumbent{Backend: a.name, HPWL: v, Estimate: estimate})
	}

	res, err := a.runSafely(ctx, d, opts, emit)
	if err != nil {
		return Result{}, err
	}
	res.Backend = a.name
	res.Interrupted = res.Interrupted || ctx.Err() != nil
	res.Wall = time.Since(start)
	emit(res.HPWL, false)
	return res, nil
}

// runSafely contains backend panics (including injected evaluator
// faults that slipped past a backend's own recovery): a panic becomes
// an error at the PlaceContext boundary, never a crash.
func (a *adapter) runSafely(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("portfolio: backend %s panicked: %v", a.name, v)
		}
	}()
	return a.run(ctx, d, opts, emit)
}

// finishBaseline runs one internal/baseline placer on a clone of d and
// folds its report into the portfolio Result shape.
func finishBaseline(ctx context.Context, d *netlist.Design, run func(*netlist.Design) baseline.Result) (Result, error) {
	work := d.Clone()
	br := run(work)
	return Result{
		HPWL:         br.HPWL,
		MacroOverlap: br.MacroOverlap,
		Converged:    br.Converged,
		Interrupted:  ctx.Err() != nil,
		Placed:       work,
	}, nil
}

// runMCTSBackend adapts the paper's full flow (internal/core) to the
// portfolio contract.
func runMCTSBackend(ctx context.Context, d *netlist.Design, opts Options, emit emitFunc) (Result, error) {
	e := opts.effort()
	copts := core.Options{Zeta: opts.Zeta, Seed: opts.Seed}
	copts.RL.Episodes = opts.Episodes
	if copts.RL.Episodes <= 0 {
		copts.RL.Episodes = scaleBudget(120, e, 2)
	}
	copts.MCTS.Gamma = opts.Gamma
	if copts.MCTS.Gamma <= 0 {
		copts.MCTS.Gamma = scaleBudget(24, e, 2)
	}
	copts.MCTS.Workers = opts.Workers
	if copts.MCTS.Workers <= 0 {
		copts.MCTS.Workers = 1
	}
	zeta := opts.Zeta
	if zeta <= 0 {
		zeta = 16
	}
	channels := opts.Channels
	if channels <= 0 {
		channels = 16
	}
	resblocks := opts.ResBlocks
	if resblocks <= 0 {
		resblocks = 2
	}
	copts.Agent = agent.Config{Zeta: zeta, Channels: channels, ResBlocks: resblocks, Seed: opts.Seed + 100}
	copts.WrapEvaluator = opts.WrapEvaluator
	copts.OnIncumbent = func(hpwl float64) { emit(hpwl, false) }
	if opts.OnStage != nil {
		name := BackendMCTS
		copts.OnStage = func(ev core.StageEvent) {
			opts.OnStage(StageEvent{Backend: name, Stage: ev.Stage, Done: ev.Done, Elapsed: ev.Elapsed})
		}
	}

	p, err := core.New(d, copts)
	if err != nil {
		return Result{}, err
	}
	res, err := p.PlaceContext(ctx)
	if err != nil {
		return Result{}, err
	}
	return Result{
		HPWL:         res.Final.HPWL,
		MacroOverlap: res.Final.MacroOverlap,
		Converged:    MovableOverlap(p.Work) <= ConvergenceEps(p.Work),
		Interrupted:  res.Search.Interrupted,
		Placed:       p.Work,
	}, nil
}

// MovableOverlap sums the pairwise overlap area over macro pairs with
// at least one movable member — the quantity legalization is obliged
// to drive to zero (fixed-fixed overlap is the design's own), and the
// geometric ground truth behind Result.Converged.
func MovableOverlap(d *netlist.Design) float64 {
	macros := d.MacroIndices()
	var total float64
	for i := 0; i < len(macros); i++ {
		for j := i + 1; j < len(macros); j++ {
			if d.Nodes[macros[i]].Fixed && d.Nodes[macros[j]].Fixed {
				continue
			}
			total += d.Nodes[macros[i]].Rect().OverlapArea(d.Nodes[macros[j]].Rect())
		}
	}
	return total
}

// ConvergenceEps returns the movable-overlap threshold below which a
// placement counts as fully separated: legalization packs neighbors
// edge to edge, and the packed coordinates can carry float-ulp overlap
// slivers that are not meaningful. The threshold scales with total
// macro area so it stays ulp-sized on any design.
func ConvergenceEps(d *netlist.Design) float64 {
	var area float64
	for _, m := range d.MacroIndices() {
		area += d.Nodes[m].Area()
	}
	return 1e-12 * area
}

// RecomputeOverlap re-derives a placed design's total macro overlap
// with the exact summation order every backend's own report uses, so
// conformance can assert bit-equality.
func RecomputeOverlap(d *netlist.Design) float64 {
	return legalize.TotalMacroOverlap(d)
}
