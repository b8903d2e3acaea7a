package rl

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"macroplace/internal/agent"
	"macroplace/internal/geom"
	"macroplace/internal/grid"
	"macroplace/internal/rng"
)

// TestParallelBackwardBitIdenticalToSequential: the update's ordered
// reduction over the workers leaves every gradient element with the
// float32 bits of back-propagating each sample on the agent in order.
// Seven samples on three workers give the workers uneven shares, and
// the agent has the real ζ=16, 16-channel training shapes.
func TestParallelBackwardBitIdenticalToSequential(t *testing.T) {
	const zeta, n = 16, 16 * 16
	r := rng.New(41)
	state := func() ([]float64, []float64) {
		sp := make([]float64, n)
		sa := make([]float64, n)
		for i := range sp {
			sp[i] = r.Float64()
			if r.Bernoulli(0.7) {
				sa[i] = r.Float64()
			}
		}
		return sp, sa
	}
	var samples []sample
	for e, steps := range []int{4, 3} {
		reward := float32(0.6 - 0.9*float64(e))
		for i := 0; i < steps; i++ {
			sp, sa := state()
			samples = append(samples, sample{st: &step{sp: sp, sa: sa, t: i, action: r.Intn(n)}, r: reward})
		}
	}
	cfg := agent.Config{Zeta: zeta, Channels: 16, ResBlocks: 2, MaxSteps: 4, Seed: 13}
	const entropyCoef = 0.01

	want := agent.New(cfg)
	for _, sm := range samples {
		out := want.Forward(sm.st.sp, sm.st.sa, sm.st.t)
		want.Backward(sm.st.action, sm.r-out.Value, sm.r, entropyCoef)
	}

	for _, procs := range []int{1, 3} {
		tr := NewTrainer(Config{EntropyCoef: entropyCoef}, agent.New(cfg), nil, nil)
		tr.procs = procs
		tr.Env = grid.NewEnv(grid.New(geom.NewRect(0, 0, zeta, zeta), zeta), nil, nil)
		tr.sizeWorkers()
		for pass := 0; pass < 2; pass++ { // the second pass reuses flushed worker buffers
			for _, p := range tr.Agent.Params() {
				p.ZeroGrad()
			}
			if outs := tr.backward(samples); len(outs) != 7 {
				t.Fatalf("%d workers: backward returned %d outputs, want 7", procs, len(outs))
			}
			for i, p := range tr.Agent.Params() {
				wp := want.Params()[i]
				for j, g := range p.G {
					if math.Float32bits(g) != math.Float32bits(wp.G[j]) {
						t.Fatalf("%d workers, pass %d: %s.G[%d] = %v (%#x), sequential %v (%#x)",
							procs, pass, p.Name, j, g, math.Float32bits(g), wp.G[j], math.Float32bits(wp.G[j]))
					}
				}
			}
		}
	}
}

// TestTrainersShareTheCPUs: a trainer runs one worker per CPU while it
// is alone and its share of GOMAXPROCS once other trainers run in the
// process, re-taken at every window; the share changes nothing in the
// result.
func TestTrainersShareTheCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Config{Episodes: 20, UpdateEvery: 10, CalibrationEpisodes: 6, Seed: 6}
	solo := testTrainer(cfg)
	solo.Run()
	if len(solo.workers) != 4 {
		t.Fatalf("a lone trainer runs %d workers, want GOMAXPROCS = 4", len(solo.workers))
	}

	shared := testTrainer(cfg)
	oracle := shared.WL
	var counts []int
	calls := 0
	shared.WL = func(anchors []int) float64 {
		calls++
		if calls > cfg.CalibrationEpisodes && (calls-cfg.CalibrationEpisodes)%cfg.UpdateEvery == 1 {
			counts = append(counts, len(shared.workers))
			if len(counts) == 1 {
				activeTrainers.Add(3) // three more trainers start
			}
		}
		return oracle(anchors)
	}
	shared.Run()
	activeTrainers.Add(-3)
	if !reflect.DeepEqual(counts, []int{4, 1}) {
		t.Errorf("workers per window = %v, want [4 1]: 4 CPUs alone, then a quarter of them", counts)
	}
	if !reflect.DeepEqual(shared.History, solo.History) || shared.Agent.Fingerprint() != solo.Agent.Fingerprint() {
		t.Error("sharing the CPUs changed the training result")
	}

	// Trainers that really run at once each train as if alone.
	pair := []*Trainer{testTrainer(cfg), testTrainer(cfg)}
	var wg sync.WaitGroup
	for _, tr := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Run()
		}()
	}
	wg.Wait()
	for i, tr := range pair {
		if !reflect.DeepEqual(tr.History, solo.History) || tr.Agent.Fingerprint() != solo.Agent.Fingerprint() {
			t.Errorf("concurrent trainer %d differs from a lone one", i)
		}
	}
	if n := activeTrainers.Load(); n != 0 {
		t.Errorf("%d trainers still counted as running", n)
	}
}

// TestWorkerHeapAtFlowTrainShapes: one more worker at the flow-train
// shapes (ζ = 16, 16 channels, 2 residual blocks, 12 steps) costs
// under 1 MiB of heap once its pass has run: a gradient buffer (about
// 600 KB), a workspace and tape (about 190 KB) and an Env copy, and no
// copy of the weights.
func TestWorkerHeapAtFlowTrainShapes(t *testing.T) {
	const zeta = 16
	shape := grid.Shape{GW: 1, GH: 1, Util: []float64{0.6}, W: 1, H: 1, Area: 0.6}
	shapes := make([]grid.Shape, 12)
	for i := range shapes {
		shapes[i] = shape
	}
	env := grid.NewEnv(grid.New(geom.NewRect(0, 0, zeta, zeta), zeta), shapes, nil)
	ag := agent.New(agent.Config{Zeta: zeta, Channels: 16, ResBlocks: 2, MaxSteps: 12, Seed: 2})
	tr := NewTrainer(Config{}, ag, env, nil)
	var ms runtime.MemStats
	heap := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	tr.procs = 1
	tr.sizeWorkers()
	before := heap()
	tr.procs = 2
	tr.sizeWorkers()
	env.Reset()
	view := tr.workers[1].view
	view.Forward(env.SP(), env.Avail(), 0)
	view.Backward(0, 0.1, 0.2, 0.01)
	grown := int64(heap()) - int64(before)
	t.Logf("one worker: %d KB of heap", grown/1024)
	if grown > 1<<20 {
		t.Errorf("one worker holds %d KB of heap, want under 1024 KB", grown/1024)
	}
	runtime.KeepAlive(tr)
}

// TestTrainerCancelMidWindow: a context cancelled in the middle of an
// update window stops training with Interrupted set, a History that is
// a prefix of the uninterrupted run's, and the weights of the last
// completed update — at one worker and at three.
func TestTrainerCancelMidWindow(t *testing.T) {
	cfg := Config{Episodes: 30, UpdateEvery: 10, CalibrationEpisodes: 6, Seed: 6}
	full := testTrainer(cfg)
	full.Run()
	firstUpdate := cfg
	firstUpdate.Episodes = 10
	once := testTrainer(firstUpdate)
	once.Run()

	for _, procs := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		env, wl := testEnv()
		calls := 0
		cancelling := func(anchors []int) float64 {
			calls++
			if calls == cfg.CalibrationEpisodes+14 { // episode 14 of window 11–20
				cancel()
			}
			return wl(anchors)
		}
		ag := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 2})
		tr := NewTrainer(cfg, ag, env, cancelling)
		tr.procs = procs
		tr.RunContext(ctx)
		cancel()
		if !tr.Interrupted {
			t.Fatalf("%d workers: mid-window cancellation not marked Interrupted", procs)
		}
		if len(tr.History) != 14 {
			t.Errorf("%d workers: history = %d episodes, want 14", procs, len(tr.History))
		}
		if !reflect.DeepEqual(tr.History, full.History[:len(tr.History)]) {
			t.Errorf("%d workers: history is not a prefix of the uninterrupted run's", procs)
		}
		if got, want := tr.Agent.Fingerprint(), once.Agent.Fingerprint(); got != want {
			t.Errorf("%d workers: weights %#x, want those of the update at episode 10 (%#x)", procs, got, want)
		}
	}
}

// TestNaNPolicyStepsDrawOnceEach: with NaN weights no action has a
// positive probability, and every step still takes an in-bounds action
// from exactly one draw of the "actions" stream — the same action the
// fallback picks from a reference stream drawn once per step.
func TestNaNPolicyStepsDrawOnceEach(t *testing.T) {
	const episodes = 5
	var got [][]int
	env, wl := testEnv()
	recording := func(anchors []int) float64 {
		got = append(got, anchors)
		return wl(anchors)
	}
	ag := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 2})
	for _, p := range ag.Params() {
		p.Fill(float32(math.NaN()))
	}
	cfg := Config{Episodes: episodes, UpdateEvery: episodes, CalibrationEpisodes: 4, Seed: 8}
	tr := NewTrainer(cfg, ag, env, wl)
	tr.procs = 3
	tr.Calibrate()
	tr.WL = recording
	tr.Run()

	// The trainer's streams: "rl", then "calibrate" and "actions" split
	// from it in that order.
	root := rng.New(cfg.Seed).Split("rl")
	root.Split("calibrate")
	actions := root.Split("actions")
	ref, _ := testEnv()
	for e := 0; e < episodes; e++ {
		ref.Reset()
		for !ref.Done() {
			ok := inBoundsActions(ref)
			a := ok[int(actions.Float64()*float64(len(ok)))]
			if err := ref.Step(a); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got[e], ref.Anchors()) {
			t.Fatalf("episode %d anchors %v, want %v from one draw per step", e+1, got[e], ref.Anchors())
		}
	}
}

// TestSampleActionUsesOneDraw: sampleAction is rng.Pick over the
// in-bounds probabilities, and with none positive it maps the same
// draw onto the in-bounds actions.
func TestSampleActionUsesOneDraw(t *testing.T) {
	env, _ := testEnv()
	env.Reset()
	n := env.G.NumCells()
	probs := make([]float32, n)
	w := make([]float64, n)
	for i := range probs {
		probs[i] = float32(i%3) / 10
	}
	r := rng.New(9)
	for k := 0; k < 100; k++ {
		u := r.Float64()
		ref := make([]float64, n)
		for i, p := range probs {
			if env.InBounds(i) {
				ref[i] = float64(p)
			}
		}
		if got, want := sampleAction(probs, env, u, w), rng.Pick(ref, u); got != want {
			t.Fatalf("u=%v: action %d, want rng.Pick's %d", u, got, want)
		}
		nan := make([]float32, n)
		for i := range nan {
			nan[i] = float32(math.NaN())
		}
		a := sampleAction(nan, env, u, w)
		ok := inBoundsActions(env)
		if !env.InBounds(a) || a != ok[int(u*float64(len(ok)))] {
			t.Fatalf("u=%v: NaN fallback action %d, want in-bounds %d", u, a, ok[int(u*float64(len(ok)))])
		}
	}
}
