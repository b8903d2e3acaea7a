package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/cluster"
	"macroplace/internal/core"
	"macroplace/internal/gplace"
	"macroplace/internal/lefdef"
	"macroplace/internal/legalize"
	"macroplace/internal/netlist"
	"macroplace/internal/nn"
	"macroplace/internal/obs"
	"macroplace/internal/rl"
	"macroplace/internal/rng"
)

// The per-layer probes run after a workload's job, on the placer and
// design that job used, and time each layer's public entry points in
// isolation.

// oracleProbeCalls is the number of seeded random allocations the
// oracle probe evaluates.
const oracleProbeCalls = 50

// lefdefDBU is the database-unit resolution designs are synthesized at.
const lefdefDBU = 1000

// probeOracle times the fast wirelength oracle (Placer.EvalAnchors) on
// seeded random allocations and returns the median call in ms.
func probeOracle(r *run, job, parent int, p *core.Placer) float64 {
	env := p.Env.Clone()
	rnd := rng.New(r.Seed).Split("oracle-probe")
	allocs := make([][]int, oracleProbeCalls)
	for i := range allocs {
		allocs[i] = rl.RandomEpisode(env, rnd)
	}
	cg := obs.Default.Counter("macroplace_gplace_cg_iterations_total", "")
	cg0 := cg.Value()
	id := r.tr.begin(job, parent, "oracle")
	var ms []float64
	for _, a := range allocs {
		ms = append(ms, millis(r.tr.time(job, id, "oracle.EvalAnchors", func() { p.EvalAnchors(a) })))
	}
	r.tr.end(id)
	callMs := median(ms)
	r.metrics["oracle.call_ms"] = callMs
	r.metrics["gplace.cg_iters_per_oracle"] = float64(cg.Value()-cg0) / oracleProbeCalls
	return callMs
}

// probeAgent times the network on a clone of the job's agent, so
// Backward never touches the weights the flow used.
func probeAgent(r *run, job, parent int, p *core.Placer) {
	id := r.tr.begin(job, parent, "agent")
	defer r.tr.end(id)
	ag := p.Agent.Clone()
	env := p.Env.Clone()
	env.Reset()
	first := agent.BatchInput{SP: env.SP(), SA: env.Avail(), T: env.T()}
	action := -1
	for a, v := range first.SA {
		if v > 0 && env.InBounds(a) {
			action = a
			break
		}
	}
	second := first
	if action >= 0 && env.Step(action) == nil {
		second = agent.BatchInput{SP: env.SP(), SA: env.Avail(), T: env.T()}
	} else {
		action = 0
	}
	const reps, maxReps, minTime = 5, 5000, 150 * time.Millisecond
	timed := func(name string, fn func()) float64 {
		return millis(medianIn(r, job, id, name, reps, maxReps, minTime, fn))
	}
	b1 := []agent.BatchInput{first}
	b2 := []agent.BatchInput{first, second}
	m := r.metrics
	m["agent.forward_ms"] = timed("agent.Forward", func() { ag.Forward(first.SP, first.SA, first.T) })
	m["agent.train_step_ms"] = timed("agent.Forward+Backward", func() {
		ag.Forward(first.SP, first.SA, first.T)
		ag.Backward(action, 0.1, 0.5, 0.01)
	})
	m["agent.eval_batch_ms.b1"] = timed("agent.EvaluateBatch.b1", func() { ag.EvaluateBatch(b1) })
	m["agent.eval_batch_ms.b2"] = timed("agent.EvaluateBatch.b2", func() { ag.EvaluateBatch(b2) })
}

// medianIn is timeMedian recorded as one span.
func medianIn(r *run, job, parent int, name string, minReps, maxReps int, minTime time.Duration, fn func()) time.Duration {
	var d time.Duration
	r.tr.time(job, parent, name, func() { d = timeMedian(minReps, maxReps, minTime, fn) })
	return d
}

// probePlacement times the preprocessing and finalization layers on
// fresh copies of the job's input design and placed design.
func probePlacement(r *run, job, parent int, p *core.Placer, design *netlist.Design, anchors []int) {
	id := r.tr.begin(job, parent, "placement")
	defer r.tr.end(id)
	const reps = 3
	var initial, build, coarsen, macros, enforce, final []float64
	var overlap, iters float64
	params := cluster.DefaultParams(p.Grid.CellArea())
	for i := 0; i < reps; i++ {
		d := design.Clone()
		initial = append(initial, r.tr.time(job, id, "gplace.InitialPlacement", func() { gplace.InitialPlacement(d) }).Seconds())
		var clus *cluster.Clustering
		build = append(build, r.tr.time(job, id, "cluster.Build", func() { clus = cluster.Build(d, params) }).Seconds())
		coarsen = append(coarsen, r.tr.time(job, id, "cluster.Coarsen", func() { cluster.Coarsen(d, clus) }).Seconds())

		w := p.Work.Clone()
		var err error
		macros = append(macros, r.tr.time(job, id, "legalize.Macros", func() {
			var res legalize.Result
			res, err = legalize.Macros(legalize.Input{
				Design: w, Clustering: p.Clus, Coarse: p.Coarse,
				Grid: p.Grid, Shapes: p.Shapes, Anchors: anchors,
			})
			overlap = res.Overlap
		}).Seconds())
		if err != nil {
			r.mismatchf("legalize probe: %v", err)
			return
		}
		enforce = append(enforce, r.tr.time(job, id, "legalize.EnforceConstraints", func() { legalize.EnforceConstraints(w) }).Seconds())
		final = append(final, r.tr.time(job, id, "gplace.final", func() {
			res := gplace.New(w, gplace.Config{Mode: gplace.MoveCells, Iterations: p.Opts.FinalPlaceIterations}).Place()
			iters = float64(res.Iterations)
		}).Seconds())
	}
	m := r.metrics
	m["gplace.initial_s"] = median(initial)
	m["cluster.build_s"] = median(build)
	m["cluster.coarsen_s"] = median(coarsen)
	m["legalize.macros_s"] = median(macros)
	m["legalize.enforce_s"] = median(enforce)
	m["legalize.overlap"] = overlap
	m["gplace.final_s"] = median(final)
	m["gplace.final_iters"] = iters
}

// synthesize writes a design as a LEF library plus a DEF document.
func synthesize(d *netlist.Design, dbu int) (lef, def []byte, err error) {
	w := d.Clone()
	if err := lefdef.SnapToDBU(w, dbu); err != nil {
		return nil, nil, err
	}
	doc, lib, err := lefdef.Synthesize(w, dbu)
	if err != nil {
		return nil, nil, err
	}
	var lb, db bytes.Buffer
	if err := lefdef.WriteLEF(&lb, lib); err != nil {
		return nil, nil, err
	}
	if err := lefdef.WriteDEF(&db, doc); err != nil {
		return nil, nil, err
	}
	return lb.Bytes(), db.Bytes(), nil
}

// probeLEFDEF times LEF and DEF parsing and DEF writing on the given
// texts.
func probeLEFDEF(r *run, job, parent int, lefSrc, defSrc []byte) {
	id := r.tr.begin(job, parent, "lefdef")
	defer r.tr.end(id)
	const reps, maxReps, minTime = 3, 200, 100 * time.Millisecond
	doc, err := lefdef.ParseDEF(defSrc, "probe.def")
	if err == nil {
		_, err = lefdef.ParseLEF(lefSrc, "probe.lef")
	}
	if err != nil {
		r.mismatchf("lefdef probe: %v", err)
		return
	}
	m := r.metrics
	timed := func(name string, fn func()) float64 {
		return millis(medianIn(r, job, id, name, reps, maxReps, minTime, fn))
	}
	m["lefdef.parse_lef_ms"] = timed("lefdef.ParseLEF", func() { lefdef.ParseLEF(lefSrc, "probe.lef") })
	m["lefdef.parse_def_ms"] = timed("lefdef.ParseDEF", func() { lefdef.ParseDEF(defSrc, "probe.def") })
	m["lefdef.write_def_ms"] = timed("lefdef.WriteDEF", func() { lefdef.WriteDEF(io.Discard, doc) })
	m["lefdef.def_kb"] = float64(len(defSrc)) / 1024
}

// gemmShape is one GEMM of the network, M×K×N as the conv forward pass
// issues it: M output channels, K = input channels × 3 × 3, N = grid
// cells × batch.
type gemmShape struct{ m, k, n int }

func (s gemmShape) String() string { return fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n) }

func (s gemmShape) flops() float64 { return 2 * float64(s.m) * float64(s.k) * float64(s.n) }

// bytes is the float32 footprint of A, B and C, each touched once.
func (s gemmShape) bytes() float64 { return 4 * float64(s.m*s.k+s.k*s.n+s.m*s.n) }

var (
	// forwardShapes: the user tower's conv1 and residual-block convs at
	// batch 1 and 2 (ζ=16, 16 channels), and the paper tower's
	// residual conv (128 channels) at batch 1.
	forwardShapes = []gemmShape{{16, 9, 256}, {16, 9, 512}, {16, 144, 256}, {16, 144, 512}, {128, 1152, 256}}
	// backwardShapes are the batch-1 shapes whose gradient kernels
	// training runs.
	backwardShapes = []gemmShape{{16, 9, 256}, {16, 144, 256}, {128, 1152, 256}}
)

// probeGEMM measures GEMM throughput per backend and shape, and the
// backward kernels training calls directly.
func probeGEMM(r *run, job, parent int) {
	id := r.tr.begin(job, parent, "nn")
	defer r.tr.end(id)
	const reps, maxReps, minTime = 3, 10000, 60 * time.Millisecond
	rnd := rand.New(rand.NewSource(r.Seed))
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rnd.NormFloat64())
		}
		return x
	}
	m := r.metrics
	for _, name := range nn.Backends() {
		be, err := nn.NewBackend(name)
		if err != nil {
			r.mismatchf("gemm probe: %v", err)
			return
		}
		for _, s := range forwardShapes {
			a, b, bias, c := fill(s.m*s.k), fill(s.k*s.n), fill(s.m), make([]float32, s.m*s.n)
			d := medianIn(r, job, id, "nn.gemm."+s.String()+"."+name, reps, maxReps, minTime, func() {
				be.MatMulBias(c, a, b, bias, s.m, s.k, s.n, false)
			})
			m["nn.gemm."+s.String()+"."+name+".gflops"] = s.flops() / d.Seconds() / 1e9
		}
	}
	for _, s := range forwardShapes {
		m["nn.gemm."+s.String()+".flop_per_byte"] = s.flops() / s.bytes()
	}
	for _, s := range backwardShapes {
		// Conv backward: dcols(K×N) = Wᵀ(K×M)·dy(M×N), and
		// dW(M×K) += dy(M×N)·colsᵀ(N×K).
		w, dy, cols := fill(s.m*s.k), fill(s.m*s.n), fill(s.k*s.n)
		dcols, dw := make([]float32, s.k*s.n), make([]float32, s.m*s.k)
		atb := medianIn(r, job, id, "nn.MatMulATB."+s.String(), reps, maxReps, minTime, func() { nn.MatMulATB(dcols, w, dy, s.k, s.m, s.n) })
		abt := medianIn(r, job, id, "nn.MatMulABTAcc."+s.String(), reps, maxReps, minTime, func() { nn.MatMulABTAcc(dw, dy, cols, s.m, s.n, s.k) })
		m["nn.gemm_atb."+s.String()+".gflops"] = s.flops() / atb.Seconds() / 1e9
		m["nn.gemm_abt."+s.String()+".gflops"] = s.flops() / abt.Seconds() / 1e9
	}
}
