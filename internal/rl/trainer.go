package rl

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"macroplace/internal/agent"
	"macroplace/internal/grid"
	"macroplace/internal/nn"
	"macroplace/internal/rng"
)

// WirelengthFunc evaluates a complete macro-group allocation (one
// anchor grid per group, in placement order) and returns its
// wirelength. In the full pipeline this runs macro legalization plus
// cell placement on the coarsened netlist (Alg. 1 line 7–8).
//
// Implementations need not be safe for concurrent use: every caller
// in this repository — the trainer, greedy play, and the parallel
// MCTS (which serializes oracle calls behind a mutex) — invokes it
// from one goroutine at a time.
type WirelengthFunc func(anchors []int) float64

// Config tunes the Actor–Critic pre-training stage.
type Config struct {
	// Episodes is the training length in episodes.
	Episodes int
	// UpdateEvery is the batch size in episodes (paper: 30).
	UpdateEvery int
	// CalibrationEpisodes is the random-play budget used to calibrate
	// the reward scaler (paper: 50).
	CalibrationEpisodes int
	// Alpha is the reward offset α of Eq. (9) (paper: [0.5, 1]).
	Alpha float64
	// Mode selects the reward function (Fig. 4 ablation).
	Mode RewardMode
	// LR is the Adam learning rate.
	LR float64
	// EntropyCoef adds an exploration bonus (0 disables).
	EntropyCoef float64
	// Seed drives action sampling.
	Seed int64
	// SnapshotEvery, when positive, stores a weight snapshot every
	// that many episodes (Fig. 5 uses 35).
	SnapshotEvery int
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.Episodes <= 0 {
		c.Episodes = 300
	}
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = 30
	}
	if c.CalibrationEpisodes <= 0 {
		c.CalibrationEpisodes = 50
	}
	if c.Alpha == 0 {
		c.Alpha = 0.75
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	return c
}

// EpisodeStat records one training episode.
type EpisodeStat struct {
	Episode    int
	Wirelength float64
	Reward     float64
}

// Snapshot is a frozen copy of the agent at a training point.
type Snapshot struct {
	Episode int
	Agent   *agent.Agent
}

// FaultStats counts the watchdog interventions of one training run.
// All zeros in a healthy run.
type FaultStats struct {
	// SkippedEpisodes counts episodes discarded before entering an
	// update batch because their wirelength or reward was NaN/Inf.
	SkippedEpisodes int
	// Restores counts weight restores from the last good state after
	// an update poisoned the network (NaN/Inf parameters).
	Restores int
}

// Trainer runs the pre-training stage on one environment.
type Trainer struct {
	Cfg    Config
	Agent  *agent.Agent
	Env    *grid.Env
	WL     WirelengthFunc
	Scaler Scaler

	// History holds one entry per training episode.
	History []EpisodeStat
	// Snapshots are the periodic weight copies (incl. episode 0, the
	// untrained agent, when SnapshotEvery > 0).
	Snapshots []Snapshot

	// Faults reports the NaN/Inf watchdog's interventions.
	Faults FaultStats
	// Interrupted reports that RunContext returned early because its
	// context was cancelled; the agent holds the weights of the last
	// completed update.
	Interrupted bool
	// Logf receives diagnostic lines (skipped episodes, weight
	// restores). Nil discards them.
	Logf func(format string, args ...any)

	opt *nn.Adam
	rnd *rng.RNG

	// lastGood is a weight copy taken after every healthy update; the
	// watchdog restores it when an update poisons the network.
	lastGood *agent.Agent

	// procs is the worker count; 0 means this trainer's share of
	// runtime.GOMAXPROCS(0) (see sizeWorkers). Only tests set it.
	procs int
	// workers run the rollouts and the update, one goroutine each; they
	// are built on first use, resized every window and dropped by
	// Release.
	workers []*worker
}

// activeTrainers counts the trainers inside RunContext in this
// process; they share the CPUs (see sizeWorkers). It is process-wide
// because the CPUs are, like the GEMM pool in internal/nn.
var activeTrainers atomic.Int64

// worker is one goroutine's share of the rollouts and the update.
type worker struct {
	view *agent.Agent // a GradView of the trainer's agent
	env  *grid.Env
	w    []float64 // sampleAction's weights
}

// sample is one step of an update batch with its episode's reward.
type sample struct {
	st *step
	r  float32
}

// NewTrainer wires a trainer. The env is reset internally; the agent
// is trained in place.
func NewTrainer(cfg Config, ag *agent.Agent, env *grid.Env, wl WirelengthFunc) *Trainer {
	cfg = cfg.Normalize()
	return &Trainer{
		Cfg:   cfg,
		Agent: ag,
		Env:   env,
		WL:    wl,
		opt:   nn.NewAdam(ag.Params(), float32(cfg.LR)),
		rnd:   rng.New(cfg.Seed).Split("rl"),
	}
}

// episodeRecord is one completed episode awaiting the batched update.
type episodeRecord struct {
	steps  []step
	reward float64
}

// rollout is one played episode of a window, before its oracle runs.
type rollout struct {
	steps   []step
	anchors []int
}

// step is one recorded decision of an episode.
type step struct {
	sp     []float64
	sa     []float64
	t      int
	action int
}

// RandomEpisode plays one uniformly-random episode (over the available
// grids of s_a, falling back to any in-bounds grid) and returns its
// anchors.
func RandomEpisode(env *grid.Env, rnd *rng.RNG) []int {
	env.Reset()
	var saBuf []float64
	for !env.Done() {
		saBuf = env.AvailInto(saBuf)
		sa := saBuf
		a := rnd.Choice(sa)
		if a < 0 {
			a = randomInBounds(env, rnd)
		}
		if err := env.Step(a); err != nil {
			panic(fmt.Sprintf("rl: random episode produced illegal action: %v", err))
		}
	}
	return env.Anchors()
}

func randomInBounds(env *grid.Env, rnd *rng.RNG) int {
	ok := inBoundsActions(env)
	return ok[rnd.Intn(len(ok))]
}

// inBoundsActions lists the actions that fit the current group. It
// panics if there are none.
func inBoundsActions(env *grid.Env) []int {
	n := env.G.NumCells()
	var ok []int
	for a := 0; a < n; a++ {
		if env.InBounds(a) {
			ok = append(ok, a)
		}
	}
	if len(ok) == 0 {
		panic("rl: no in-bounds action exists")
	}
	return ok
}

// Calibrate plays the random episodes of Sec. III-E and installs the
// resulting reward scaler. It returns the calibration wirelengths.
func (tr *Trainer) Calibrate() []float64 {
	wls := make([]float64, 0, tr.Cfg.CalibrationEpisodes)
	r := tr.rnd.Split("calibrate")
	for i := 0; i < tr.Cfg.CalibrationEpisodes; i++ {
		anchors := RandomEpisode(tr.Env, r)
		wls = append(wls, tr.WL(anchors))
	}
	tr.Scaler = Calibrate(tr.Cfg.Mode, wls, tr.Cfg.Alpha)
	return wls
}

// Evaluator is the inference surface greedy playout needs: both
// *agent.Agent and *agent.CachedEvaluator implement it, so callers can
// route the episode through a shared evaluation cache.
type Evaluator interface {
	Forward(sp, sa []float64, t int) agent.Output
}

// PlayGreedy runs one episode with argmax actions (no exploration) and
// returns the anchors and wirelength — the "RL result" curve of
// Fig. 5.
func PlayGreedy(ag *agent.Agent, env *grid.Env, wl WirelengthFunc) ([]int, float64) {
	return PlayGreedyEval(ag, env, wl)
}

// PlayGreedyEval is PlayGreedy over any Evaluator. State buffers are
// reused across steps (the evaluator must not retain them — Forward's
// contract).
func PlayGreedyEval(ev Evaluator, env *grid.Env, wl WirelengthFunc) ([]int, float64) {
	env.Reset()
	var spBuf, saBuf []float64
	for !env.Done() {
		saBuf = env.AvailInto(saBuf)
		spBuf = env.SPInto(spBuf)
		out := ev.Forward(spBuf, saBuf, env.T())
		best, bestP := -1, float32(-1)
		for a, p := range out.Probs {
			if p > bestP && env.InBounds(a) {
				best, bestP = a, p
			}
		}
		if best < 0 || bestP <= 0 {
			// Degenerate distribution: fall back to the first
			// in-bounds action deterministically.
			for a := 0; a < env.G.NumCells(); a++ {
				if env.InBounds(a) {
					best = a
					break
				}
			}
		}
		if err := env.Step(best); err != nil {
			panic(fmt.Sprintf("rl: greedy episode produced illegal action: %v", err))
		}
	}
	anchors := env.Anchors()
	return anchors, wl(anchors)
}

// Run executes the training loop: episodes of policy-sampled actions,
// terminal reward broadcast to every step (Sec. III-E), and an
// Actor–Critic update every UpdateEvery episodes (Alg. 1 line 9). It
// calibrates first if Calibrate was not called.
func (tr *Trainer) Run() {
	tr.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation is observed between
// episodes, after which the trainer returns with Interrupted set and
// the agent holding the weights of the last completed update — already
// usable for search. History then holds a prefix of the episodes an
// uninterrupted run records. With a background context training is
// byte-for-byte the same as Run.
//
// Training runs one update window at a time. The next
// min(UpdateEvery − len(batch), remaining) episodes all play under the
// same weights, so they roll out concurrently on the trainer's share
// of runtime.GOMAXPROCS(0) (see sizeWorkers), one worker per CPU, each
// on its own environment and training pass (agent.GradView). A worker checks the context before starting each
// episode, and the loop checks it again before each episode's oracle.
// Every step consumes exactly one Float64 of the single
// "actions" stream: episode e of a window uses the draws
// [e·T, (e+1)·T), T = Env.NumSteps(), which are drawn in order before
// the window starts, so the actions do not depend on the worker count
// or on scheduling. This is the stream sequential training drew, with
// one exception: when no in-bounds action has a positive probability
// (NaN weights, say), sampleAction takes its uniform fallback from the
// step's draw too, where it once drew a separate integer. The oracle,
// History, the NaN watchdog, the update and the snapshots then run on
// the calling goroutine, episode by episode in order, exactly as a
// sequential loop would run them.
//
// A NaN/Inf watchdog guards the loop: an episode whose oracle or
// reward is non-finite is recorded in History but never enters an
// update batch (Faults.SkippedEpisodes), and an update that leaves
// any parameter non-finite is rolled back by restoring the last good
// weights and a fresh optimizer (Faults.Restores) — poisoned Adam
// moments must not survive the restore.
func (tr *Trainer) RunContext(ctx context.Context) {
	if tr.Scaler.Max == 0 && tr.Scaler.Min == 0 {
		tr.Calibrate()
	}
	if tr.Cfg.SnapshotEvery > 0 {
		tr.Snapshots = append(tr.Snapshots, Snapshot{Episode: 0, Agent: tr.Agent.Clone()})
	}
	if tr.opt == nil {
		tr.opt = nn.NewAdam(tr.Agent.Params(), float32(tr.Cfg.LR))
	}
	activeTrainers.Add(1)
	defer activeTrainers.Add(-1)
	for _, wk := range tr.workers {
		tr.Env.CloneInto(wk.env)
	}
	var batch []episodeRecord
	var draws []float64
	sampler := tr.rnd.Split("actions")
	steps := tr.Env.NumSteps()

	for ep := 0; ep < tr.Cfg.Episodes; {
		n := min(tr.Cfg.UpdateEvery-len(batch), tr.Cfg.Episodes-ep)
		draws = draws[:0]
		for range n * steps {
			draws = append(draws, sampler.Float64())
		}
		tr.sizeWorkers()
		window := tr.rollouts(ctx, n, draws)
		for _, ro := range window {
			if ro.steps == nil || ctx.Err() != nil {
				tr.Interrupted = true
				return
			}
			ep++
			w := tr.WL(ro.anchors)
			r := tr.Scaler.Reward(w)
			tr.History = append(tr.History, EpisodeStat{Episode: ep, Wirelength: w, Reward: r})
			obsEpisodes.Inc()
			obsReward.Set(r)
			obsWirelength.Set(w)
			if isFinite(w) && isFinite(r) {
				batch = append(batch, episodeRecord{steps: ro.steps, reward: r})
			} else {
				tr.Faults.SkippedEpisodes++
				obsQuarantined.Inc()
				tr.logf("rl: episode %d skipped (wirelength %v, reward %v)", ep, w, r)
			}

			if len(batch) >= tr.Cfg.UpdateEvery || ep == tr.Cfg.Episodes {
				tr.guardedUpdate(batch, ep)
				batch = batch[:0]
			}
			if tr.Cfg.SnapshotEvery > 0 && ep%tr.Cfg.SnapshotEvery == 0 {
				tr.Snapshots = append(tr.Snapshots, Snapshot{Episode: ep, Agent: tr.Agent.Clone()})
			}
		}
	}
}

// sizeWorkers sets the worker count for the next window to the
// trainer's share of the CPUs: runtime.GOMAXPROCS(0) divided by the
// number of trainers running in the process, at least one. Concurrent
// trainers (daemon jobs, portfolio backends) so hold about one
// GOMAXPROCS set of workers between them rather than one each, and a
// trainer that is alone again takes every CPU at its next window.
// Workers beyond the share are dropped; new ones get a copy of Env.
// The count never changes the result (see backward).
func (tr *Trainer) sizeWorkers() {
	n := tr.procs
	if n <= 0 {
		n = max(1, runtime.GOMAXPROCS(0)/int(activeTrainers.Load()))
	}
	for len(tr.workers) < n {
		wk := &worker{view: tr.Agent.GradView(), env: &grid.Env{}}
		tr.Env.CloneInto(wk.env)
		tr.workers = append(tr.workers, wk)
	}
	clear(tr.workers[n:])
	tr.workers = tr.workers[:n]
}

// rollouts plays the n episodes of a window under the current weights
// on the workers, episode e with the draws [e·T, (e+1)·T). An episode
// that a cancelled context kept from starting has nil steps.
func (tr *Trainer) rollouts(ctx context.Context, n int, draws []float64) []rollout {
	window := make([]rollout, n)
	t := len(draws) / n
	var next atomic.Int64
	fork(min(len(tr.workers), n), func(w int) {
		wk := tr.workers[w]
		for {
			e := int(next.Add(1)) - 1
			if e >= n || ctx.Err() != nil {
				return
			}
			window[e] = wk.play(draws[e*t : (e+1)*t])
		}
	})
	return window
}

// play runs one episode on the worker's environment, step i sampling
// its action with the draw u[i].
func (wk *worker) play(u []float64) rollout {
	env := wk.env
	env.Reset()
	steps := make([]step, 0, len(u))
	for i := 0; !env.Done(); i++ {
		sp := env.SP()
		sa := env.Avail()
		t := env.T()
		out := wk.view.Forward(sp, sa, t)
		if cap(wk.w) < len(out.Probs) {
			wk.w = make([]float64, len(out.Probs))
		}
		a := sampleAction(out.Probs, env, u[i], wk.w[:len(out.Probs)])
		steps = append(steps, step{sp: sp, sa: sa, t: t, action: a})
		if err := env.Step(a); err != nil {
			panic(fmt.Sprintf("rl: training episode produced illegal action: %v", err))
		}
	}
	return rollout{steps: steps, anchors: env.Anchors()}
}

// fork runs f(0), …, f(n−1) concurrently, f(0) on the calling
// goroutine, and returns once all have returned. The first panic of
// any of them is re-raised on the caller.
func fork(n int, f func(w int)) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		pval any
	)
	run := func(w int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if pval == nil {
					pval = v
				}
				mu.Unlock()
			}
		}()
		f(w)
	}
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}

// Release drops the training-only state once no more training is
// planned: the optimizer moments, the watchdog's last good copy, the
// workers with their gradient buffers, workspaces and environments,
// and the agent's gradients and backward caches. History, Snapshots,
// Scaler and Faults stay. A later RunContext starts with a fresh
// optimizer and takes a new last good copy.
func (tr *Trainer) Release() {
	tr.opt = nil
	tr.lastGood = nil
	tr.workers = nil
	tr.Agent.ReleaseTrainingState()
}

// guardedUpdate applies one batched update under the watchdog: the
// pre-update weights are kept (lazily, as the last good copy) and
// restored if the update leaves any parameter NaN/Inf. The restore
// also rebuilds the optimizer — Adam's moment estimates were computed
// from the poisoned gradients and would re-poison the next step.
func (tr *Trainer) guardedUpdate(batch []episodeRecord, ep int) {
	if len(batch) == 0 {
		return
	}
	if tr.lastGood == nil {
		tr.lastGood = tr.Agent.Clone()
	}
	tr.update(batch)
	if agentHealthy(tr.Agent) {
		tr.lastGood.CopyWeightsFrom(tr.Agent)
		return
	}
	tr.Faults.Restores++
	obsRestores.Inc()
	tr.logf("rl: update at episode %d poisoned the network; restoring last good weights", ep)
	tr.Agent.CopyWeightsFrom(tr.lastGood)
	tr.opt = nn.NewAdam(tr.Agent.Params(), float32(tr.Cfg.LR))
}

// agentHealthy reports whether every parameter of ag is finite.
func agentHealthy(ag *agent.Agent) bool {
	for _, p := range ag.Params() {
		for _, v := range p.W {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (tr *Trainer) logf(format string, args ...any) {
	if tr.Logf != nil {
		tr.Logf(format, args...)
	}
}

// update replays each recorded step to rebuild its training pass,
// back-propagates the Actor–Critic loss of Eqs. (5)–(8) and applies one
// optimizer step over the whole batch.
func (tr *Trainer) update(batch []episodeRecord) {
	var samples []sample
	for _, ep := range batch {
		for i := range ep.steps {
			samples = append(samples, sample{st: &ep.steps[i], r: float32(ep.reward)})
		}
	}
	count := len(samples)
	if count == 0 {
		return
	}
	outs := tr.backward(samples)

	// Telemetry-only loss terms, recomputed from the outputs the
	// backward steps consumed, in sample order — no effect on gradients.
	var policyLoss, valueLoss, entropy float64
	for s, out := range outs {
		sm := samples[s]
		adv := sm.r - out.Value
		if p := float64(out.Probs[sm.st.action]); p > 0 {
			policyLoss += -math.Log(p) * float64(adv)
		}
		valueLoss += float64(adv) * float64(adv)
		for _, p := range out.Probs {
			if p > 0 {
				entropy += -float64(p) * math.Log(float64(p))
			}
		}
	}

	// Average gradients over the batch for scale stability.
	inv := 1 / float32(count)
	var sq float64
	for _, p := range tr.Agent.Params() {
		for i := range p.G {
			p.G[i] *= inv
			sq += float64(p.G[i]) * float64(p.G[i])
		}
	}
	tr.opt.Step()
	obsUpdates.Inc()
	n := float64(count)
	obsPolicyLoss.Set(policyLoss / n)
	obsValueLoss.Set(valueLoss / n)
	obsEntropy.Set(entropy / n)
	obsGradNorm.Set(math.Sqrt(sq))
}

// backward adds the gradient of every sample into the agent's and
// returns each sample's replayed output.
//
// Sample s replays and back-propagates on worker s mod W, into the
// worker's own buffer, and the buffers add into the agent's gradient
// in increasing s: each worker waits for its sample's turn and then
// calls AddGradsFrom. The sum therefore performs the rounding sequence
// of back-propagating every sample on the agent in order, at any
// worker count (see agent.AddGradsFrom).
func (tr *Trainer) backward(samples []sample) []agent.Output {
	count := len(samples)
	outs := make([]agent.Output, count)
	ent := float32(tr.Cfg.EntropyCoef)
	nw := min(len(tr.workers), count)
	tk := newTurns()
	fork(nw, func(w int) {
		defer func() {
			if v := recover(); v != nil {
				tk.abort()
				panic(v)
			}
		}()
		view := tr.workers[w].view
		for s := w; s < count; s += nw {
			sm := samples[s]
			out := view.Forward(sm.st.sp, sm.st.sa, sm.st.t)
			view.Backward(sm.st.action, sm.r-out.Value, sm.r, ent) // advantage: Eq. (6)
			if !tk.wait(s) {
				return
			}
			tr.Agent.AddGradsFrom(view)
			tk.pass()
			outs[s] = out
		}
	})
	return outs
}

// turns hands the agent's gradients to one sample at a time, in
// increasing sample order.
type turns struct {
	mu   sync.Mutex
	cond sync.Cond
	next int  // the sample whose turn it is
	dead bool // a worker panicked: nobody waits any more
}

func newTurns() *turns {
	t := &turns{}
	t.cond.L = &t.mu
	return t
}

// wait blocks until it is sample s's turn and reports true, or reports
// false once a worker has panicked.
func (t *turns) wait(s int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.next != s && !t.dead {
		t.cond.Wait()
	}
	return !t.dead
}

// pass ends the current sample's turn.
func (t *turns) pass() {
	t.mu.Lock()
	t.next++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// abort releases every waiter for good.
func (t *turns) abort() {
	t.mu.Lock()
	t.dead = true
	t.mu.Unlock()
	t.cond.Broadcast()
}

// sampleAction picks the action that the uniform draw u ∈ [0, 1)
// selects from probs restricted to in-bounds actions, using w (len
// probs) as scratch. When no in-bounds action has a positive
// probability it falls back to a uniform in-bounds action chosen by
// the same draw, so every step consumes exactly one draw.
func sampleAction(probs []float32, env *grid.Env, u float64, w []float64) int {
	for i, p := range probs {
		w[i] = 0
		if p > 0 && env.InBounds(i) {
			w[i] = float64(p)
		}
	}
	if a := rng.Pick(w, u); a >= 0 {
		return a
	}
	ok := inBoundsActions(env)
	return ok[min(int(u*float64(len(ok))), len(ok)-1)]
}
