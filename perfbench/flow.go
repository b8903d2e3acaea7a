package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"macroplace/internal/core"
	"macroplace/internal/gen"
	"macroplace/internal/mcts"
	"macroplace/internal/metrics"
	"macroplace/internal/netlist"
	"macroplace/internal/serve"
)

// flowParams describes a single-flow workload: one client running one
// complete flow (core.New + PlaceContext) at a time on a generated
// design, with the options the CLI and the daemon derive from a spec.
type flowParams struct {
	Name  string  `json:"name"`
	Bench string  `json:"bench"`
	Scale float64 `json:"scale"`
	// DesignSeed fixes the generated design; the workload seed drives
	// the flow's own seeds (see README.md).
	DesignSeed int64 `json:"design_seed"`
	Episodes   int   `json:"episodes"`
	Gamma      int   `json:"gamma"`
	Workers    int   `json:"workers"`
}

var (
	// flowTrain runs the CLI defaults on a small design: RL
	// pre-training is nearly the whole job.
	flowTrain = flowParams{Name: "flow-train", Bench: "ibm01", Scale: 0.05, DesignSeed: 1, Episodes: 120, Gamma: 24, Workers: 1}
	// flowSearch spends its time in a parallel search whose leaf
	// evaluations almost all miss the evaluation cache.
	flowSearch = flowParams{Name: "flow-search", Bench: "ibm01", Scale: 0.2, DesignSeed: 1, Episodes: 10, Gamma: 64, Workers: 2}
)

// flowSetupReps is how many times a flow run generates its design;
// setup_s is the median.
const flowSetupReps = 21

// options are the flow options of a daemon job spec for this workload:
// the options a user of the CLI or the daemon gets (16 channels × 2
// residual blocks).
func (fp flowParams) options(seed int64) core.Options {
	return serve.Spec{Seed: seed, Episodes: fp.Episodes, Gamma: fp.Gamma, Workers: fp.Workers}.Options()
}

// setup generates the workload's design flowSetupReps times and returns
// the last one with every repetition's time.
func (fp flowParams) setup() (*netlist.Design, []float64, error) {
	var d *netlist.Design
	var times []float64
	for i := 0; i < flowSetupReps; i++ {
		start := time.Now()
		var err error
		d, err = gen.IBM(fp.Bench, fp.Scale, fp.DesignSeed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, times, nil
}

// flowJob is one completed flow job.
type flowJob struct {
	p    *core.Placer
	res  *core.Result
	wall time.Duration
	mem  memDelta
}

func runFlowJob(design *netlist.Design, opts core.Options) (*flowJob, error) {
	before := readMem()
	start := time.Now()
	p, err := core.New(design, opts)
	if err != nil {
		return nil, err
	}
	res, err := p.PlaceContext(context.Background())
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	return &flowJob{p: p, res: res, wall: wall, mem: memSince(before)}, nil
}

// checkFlow verifies a shipped flow placement: the reported HPWL must
// equal a recomputation on the placed design, and every movable macro
// must lie inside the region. Residual macro overlap is a known defect
// and is reported as macro_overlap, not failed here.
func checkFlow(job *flowJob) error {
	d := job.p.Work
	if got := metrics.Measure(d).HPWL; got != job.res.Final.HPWL {
		return fmt.Errorf("recomputed hpwl %v differs from reported %v", got, job.res.Final.HPWL)
	}
	eps := 1e-9 * (d.Region.W() + d.Region.H())
	for _, mi := range d.MovableMacroIndices() {
		r := d.Nodes[mi].Rect()
		if r.Lx < d.Region.Lx-eps || r.Ly < d.Region.Ly-eps || r.Ux > d.Region.Ux+eps || r.Uy > d.Region.Uy+eps {
			return fmt.Errorf("macro %s at %v lies outside region %v", d.Nodes[mi].Name, r, d.Region)
		}
	}
	return nil
}

// loop runs checked jobs back to back: exactly jobs of them when jobs
// > 0, otherwise until the run's duration has passed (at least one).
func (fp flowParams) loop(r *run, design *netlist.Design, opts core.Options, jobs int) (*jobStats, *flowJob) {
	js := &jobStats{}
	var last *flowJob
	start := time.Now()
	for i := 0; ; i++ {
		if jobs > 0 && i == jobs || jobs == 0 && i > 0 && time.Since(start) >= r.Seconds {
			break
		}
		r.attempted++
		job, err := runFlowJob(design, opts)
		if err == nil {
			err = checkFlow(job)
		}
		if err != nil {
			r.fail("%s job %d (seed %d): %v", fp.Name, i, r.Seed, err)
			continue
		}
		js.add(job.wall, job.res.Final.HPWL, job.res.Final.MacroOverlap, job.mem)
		last = job
	}
	js.elapsed = time.Since(start)
	return js, last
}

func (fp flowParams) measure(r *run) error {
	design, setup, err := fp.setup()
	if err != nil {
		return err
	}
	opts := fp.options(r.Seed)
	if !r.Trace {
		js, _ := fp.loop(r, design, opts, 0)
		js.endToEnd(r, setup)
		return nil
	}
	return fp.traced(r, design, opts)
}

// traced runs one untraced job, then the same job traced, then the
// single-layer probes on the traced job's placer.
func (fp flowParams) traced(r *run, design *netlist.Design, opts core.Options) error {
	plain, ref := fp.loop(r, design, opts, 1)
	if ref == nil {
		return fmt.Errorf("untraced reference job failed")
	}
	plain.perJobRuntime(r)

	const jobID = 1
	shim := &evalShim{}
	stageSpan := map[string]int{}
	stageDur := map[string]time.Duration{}
	var searchBase, searchEval evalCounts
	var wrapErr error
	var root int
	topts := opts
	topts.OnStage = func(ev core.StageEvent) {
		if !ev.Done {
			stageSpan[ev.Stage] = r.tr.begin(jobID, root, ev.Stage)
			if ev.Stage == "search" {
				searchBase = shim.snapshot()
			}
			return
		}
		r.tr.end(stageSpan[ev.Stage])
		stageDur[ev.Stage] += ev.Elapsed
		if ev.Stage == "search" {
			searchEval = shim.snapshot().sub(searchBase)
		}
	}
	topts.WrapEvaluator = func(ev mcts.Evaluator) mcts.Evaluator {
		inner, ok := ev.(cachedEvaluator)
		if !ok {
			wrapErr = fmt.Errorf("evaluator %T lacks the cache interfaces the search uses", ev)
			return ev
		}
		shim.inner = inner
		return shim
	}

	r.attempted++
	root = r.tr.begin(jobID, 0, "job")
	job, err := runFlowJob(design, topts)
	r.tr.end(root)
	if err == nil {
		err = wrapErr
	}
	if err != nil {
		return fmt.Errorf("traced job: %w", err)
	}
	if err := checkFlow(job); err != nil {
		r.fail("%s traced job (seed %d): %v", fp.Name, r.Seed, err)
	}
	res := job.res
	if fp.Workers == 1 {
		// The sequential flow is deterministic, so tracing must not
		// change a single decision it makes.
		a, b := ref.res, res
		if math.Float64bits(a.Final.HPWL) != math.Float64bits(b.Final.HPWL) ||
			a.Search.Explorations != b.Search.Explorations ||
			a.Search.TerminalEvals != b.Search.TerminalEvals ||
			a.Search.CacheHits != b.Search.CacheHits || a.Search.CacheMisses != b.Search.CacheMisses {
			r.mismatchf("traced job differs from untraced: hpwl %v/%v explorations %d/%d terminal evals %d/%d cache %d+%d/%d+%d",
				a.Final.HPWL, b.Final.HPWL, a.Search.Explorations, b.Search.Explorations,
				a.Search.TerminalEvals, b.Search.TerminalEvals,
				a.Search.CacheHits, a.Search.CacheMisses, b.Search.CacheHits, b.Search.CacheMisses)
		}
	}

	pre, pt, se := stageDur["preprocess"].Seconds(), stageDur["pretrain"].Seconds(), stageDur["search"].Seconds()
	fin := stageDur["finalize"].Seconds()
	m := r.metrics
	m["trace.overhead_ratio"] = job.wall.Seconds() / ref.wall.Seconds()
	m["core.preprocess_s"] = pre
	m["core.pretrain_s"] = pt
	m["core.search_s"] = se
	m["core.finalize_s"] = fin
	m["core.other_s"] = job.wall.Seconds() - pre - pt - se - fin
	if fp.Name == flowTrain.Name {
		share := pt / job.wall.Seconds()
		condition("core.pretrain_s is at least 0.8 of the job", share >= 0.8, fmt.Sprintf("%.3f", share))
	} else {
		condition("core.search_s is the largest stage", se > pre && se > pt && se > fin,
			fmt.Sprintf("preprocess %.3gs, pretrain %.3gs, search %.3gs, finalize %.3gs", pre, pt, se, fin))
	}

	// Search scaling: rerun the search on the same trained agent at the
	// other worker count, with the evaluation cache dropped so the
	// rerun starts cold.
	p := job.p
	p.Opts.OnStage = nil
	p.Close()
	other := 2
	if fp.Workers != 1 {
		other = 1
	}
	p.Opts.MCTS.Workers = other
	rerun := r.tr.time(jobID, 0, fmt.Sprintf("search.workers%d", other), func() { p.RunMCTS() })
	w1, w2 := se, rerun.Seconds()
	if fp.Workers != 1 {
		w1, w2 = w2, se
	}
	m["mcts.w1_search_s"] = w1
	m["mcts.w2_speedup"] = ratio(w1, w2)

	probe := r.tr.begin(jobID, 0, "probes")
	callMs := probeOracle(r, jobID, probe, p)
	pretrainCalls := float64(p.Trainer.Cfg.CalibrationEpisodes + len(res.History))
	searchCalls := float64(res.Search.TerminalEvals)
	m["oracle.pretrain_calls"] = pretrainCalls
	m["oracle.search_calls"] = searchCalls
	m["oracle.pretrain_s"] = pretrainCalls * callMs / 1e3
	m["oracle.search_s"] = searchCalls * callMs / 1e3
	m["rl.episodes_per_s"] = ratio(float64(len(res.History)), pt)
	m["rl.nn_s"] = pt - m["oracle.pretrain_s"]

	m["mcts.explorations_per_s"] = ratio(float64(res.Search.Explorations), se)
	m["mcts.terminal_evals"] = searchCalls
	m["mcts.eval_calls"] = float64(searchEval.calls)
	m["mcts.eval_busy_s"] = searchEval.busy.Seconds()
	m["mcts.eval_batch_mean"] = ratio(float64(searchEval.inputs), float64(searchEval.calls))
	m["mcts.self_s"] = se - searchEval.busy.Seconds() - m["oracle.search_s"]
	m["mcts.worker_panics"] = float64(res.Search.WorkerPanics)
	m["mcts.hpwl_vs_rl"] = res.Final.HPWL / res.RLFinal.HPWL
	cacheMetrics(r, float64(res.Search.CacheHits), float64(res.Search.CacheHits+res.Search.CacheMisses))

	probeAgent(r, jobID, probe, p)
	probePlacement(r, jobID, probe, p, design, res.Final.Anchors)
	lef, def, err := synthesize(p.Work, lefdefDBU)
	if err != nil {
		return err
	}
	probeLEFDEF(r, jobID, probe, lef, def)
	probeGEMM(r, jobID, probe)
	r.tr.end(probe)

	// The flows reach neither the daemon nor the ECO search.
	for _, name := range []string{
		"eco.run_s_p50", "eco.probes_per_s", "eco.warm_ratio", "eco.cache_hit_ratio",
		"serve.submit_ms_p50", "serve.queue_wait_s_p50", "serve.overhead_s_p50",
		"serve.def_fetch_ms_p50", "serve.rejected",
	} {
		m[name] = 0
	}
	return nil
}

func cacheMetrics(r *run, hits, lookups float64) {
	r.metrics["agent.cache_hits"] = hits
	r.metrics["agent.cache_lookups"] = lookups
	r.metrics["agent.cache_hit_ratio"] = ratio(hits, lookups)
}
