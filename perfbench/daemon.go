package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"macroplace/internal/core"
	"macroplace/internal/eco"
	"macroplace/internal/gen"
	"macroplace/internal/lefdef"
	"macroplace/internal/netlist"
	"macroplace/internal/rl"
	"macroplace/internal/rng"
	"macroplace/internal/serve"
)

// ecoWorkload describes daemon-eco: an in-process daemon on loopback
// HTTP, driven by a closed loop of clients that each POST a warm ECO
// job, wait until it is terminal and fetch the placed DEF.
type ecoWorkload struct {
	Bench string  `json:"bench"`
	Scale float64 `json:"scale"`
	// DesignSeed fixes the generated design; the workload seed drives
	// the jobs' seeds and the deltas.
	DesignSeed int64   `json:"design_seed"`
	DBU        int     `json:"dbu"`
	Halo       float64 `json:"halo"`
	Episodes   int     `json:"episodes"`
	Gamma      int     `json:"gamma"`
	// ServerWorkers is the daemon's worker pool; Clients the number of
	// closed-loop client goroutines.
	ServerWorkers int `json:"server_workers"`
	Clients       int `json:"clients"`
	// Deltas is the number of seeded netlist deltas the jobs cycle
	// through; each gets one cold ECO during set-up.
	Deltas int `json:"deltas"`
	// MinJobs is the fewest jobs a measured loop runs, so that ten
	// samples lie beyond job_s_p90.
	MinJobs int `json:"min_jobs"`
	// SetupReps is how many times a run repeats its set-up.
	SetupReps int `json:"setup_reps"`
}

var ecoParams = ecoWorkload{
	Bench: "ibm01", Scale: 0.1, DesignSeed: 1, DBU: lefdefDBU, Halo: 0.5,
	Episodes: 4, Gamma: 4,
	ServerWorkers: 2, Clients: 2, Deltas: 2, MinJobs: 100, SetupReps: 3,
}

// maxLoop bounds a measured loop's wall time whatever MinJobs asks, so
// a run always ends within its time limit.
const maxLoop = 50 * time.Second

// ecoEnv is one set-up daemon: the server, the design it places and
// the warm state every measured job reuses.
type ecoEnv struct {
	srv    *serve.Server
	url    string
	client *http.Client
	spec   serve.Spec // full-job spec; ECO jobs add Eco
	lef    *lefdef.LEF
	design *netlist.Design // materialised pre-delta design
	prior  string          // the prior full job's id
	deltas []*eco.Delta
}

// ecoJob is one client-observed daemon job.
type ecoJob struct {
	delta    int
	status   serve.Status
	def      []byte
	start    time.Time
	latency  time.Duration // POST to DEF received
	submit   time.Duration
	defFetch time.Duration
	// stages sums each server-side stage's time (traced jobs only).
	stages map[string]time.Duration
}

// errRejected marks a submission the daemon refused with 429.
var errRejected = errors.New("submission refused (429)")

func daemonEco(r *run) error {
	ep := ecoParams
	jobsRoot := filepath.Join(".bench_build", "jobs", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(jobsRoot)

	var env *ecoEnv
	var setup []float64
	for rep := 0; rep < ep.SetupReps; rep++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		env, err = ep.setup(r, filepath.Join(jobsRoot, fmt.Sprint(rep)))
		if err != nil {
			if env != nil {
				env.close()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer env.close()

	if !r.Trace {
		lp := env.loop(r, ep, false)
		lp.stats.endToEnd(r, setup)
		return nil
	}
	plain := env.loop(r, ep, false)
	traced := env.loop(r, ep, true)
	plain.stats.perJobRuntime(r)
	traced.perLayer(r, plain)
	if len(traced.jobs) == 0 {
		return fmt.Errorf("no traced job succeeded")
	}
	m := r.metrics
	condition("eco.warm_ratio is 1 and agent.cache_hit_ratio is at least 0.9",
		m["eco.warm_ratio"] == 1 && m["agent.cache_hit_ratio"] >= 0.9,
		fmt.Sprintf("%g and %g", m["eco.warm_ratio"], m["agent.cache_hit_ratio"]))
	return env.probe(r, traced.jobs[len(traced.jobs)-1].def)
}

// setup synthesizes the design to LEF/DEF, starts a daemon, runs the
// prior full job and one cold ECO per delta, so that every measured
// job finds warm state. The warm store is emptied first, so each
// repetition pays the full cold cost.
func (ep ecoWorkload) setup(r *run, dir string) (*ecoEnv, error) {
	eco.Default.InvalidateAll()
	d, err := gen.IBM(ep.Bench, ep.Scale, ep.DesignSeed)
	if err != nil {
		return nil, err
	}
	lefText, defText, err := synthesize(d, ep.DBU)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Workers: ep.ServerWorkers, Dir: dir})
	if err != nil {
		return nil, err
	}
	env := &ecoEnv{srv: srv, client: &http.Client{Transport: &http.Transport{}}}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return env, err
	}
	env.url = "http://" + addr
	env.spec = serve.Spec{
		LEF: string(lefText), DEF: string(defText),
		Phys: &netlist.Constraints{HaloX: ep.Halo, HaloY: ep.Halo},
		Seed: r.Seed, Episodes: ep.Episodes, Gamma: ep.Gamma, Workers: 1,
	}
	if env.lef, err = lefdef.ParseLEF(lefText, "design.lef"); err != nil {
		return env, err
	}
	if env.design, err = env.spec.LoadDesign(filepath.Join(dir, "bench")); err != nil {
		return env, err
	}

	prior, err := env.do(env.spec, -1)
	if err := env.setupJob(r, "prior job", prior, err); err != nil {
		return env, err
	}
	env.prior = prior.status.ID
	env.deltas = makeDeltas(env.design, r.Seed, ep.Deltas)
	// The cold ECOs run concurrently, one per daemon worker.
	jobs := make([]*ecoJob, len(env.deltas))
	errs := make([]error, len(env.deltas))
	var wg sync.WaitGroup
	for k := range env.deltas {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			jobs[k], errs[k] = env.do(env.ecoSpec(k), k)
		}(k)
	}
	wg.Wait()
	for k := range jobs {
		if err := env.setupJob(r, fmt.Sprintf("cold ECO %d", k), jobs[k], errs[k]); err != nil {
			return env, err
		}
	}
	return env, nil
}

// setupJob accounts for a set-up job. One that did not finish is
// returned as an error, since the measured jobs need its state; a
// finished job that fails its check counts as failed.
func (env *ecoEnv) setupJob(r *run, what string, job *ecoJob, err error) error {
	r.attempted++
	if err == nil && job.status.State != serve.StateDone {
		err = env.check(job)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := env.check(job); err != nil {
		r.fail("daemon-eco set-up %s (seed %d): %v", what, r.Seed, err)
	}
	return nil
}

// makeDeltas derives n netlist deltas from the seed: each adds a net
// between two movable macros and reweights an existing net.
func makeDeltas(d *netlist.Design, seed int64, n int) []*eco.Delta {
	rnd := rng.New(seed).Split("eco-deltas")
	macros := d.MovableMacroIndices()
	out := make([]*eco.Delta, n)
	for k := range out {
		a := macros[rnd.Intn(len(macros))]
		b := macros[rnd.Intn(len(macros))]
		for b == a && len(macros) > 1 {
			b = macros[rnd.Intn(len(macros))]
		}
		out[k] = &eco.Delta{
			AddNets: []eco.DeltaNet{{
				Name:   fmt.Sprintf("perfbench_eco%d", k),
				Weight: float64(2 + k),
				Pins:   []eco.DeltaPin{{Node: d.Nodes[a].Name}, {Node: d.Nodes[b].Name}},
			}},
			Reweight: map[string]float64{d.Nets[rnd.Intn(len(d.Nets))].Name: float64(3 + k)},
		}
	}
	return out
}

func (env *ecoEnv) ecoSpec(delta int) serve.Spec {
	sp := env.spec
	sp.Eco = &serve.EcoSpec{PriorJob: env.prior, Delta: env.deltas[delta]}
	return sp
}

func (env *ecoEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon shutdown: %v\n", err)
	}
	env.client.CloseIdleConnections()
}

// do runs one job the way a client does: POST the spec, follow the
// event stream until the job is terminal, read its status, then GET
// the placed DEF of a done job.
func (env *ecoEnv) do(spec serve.Spec, delta int) (*ecoJob, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	job := &ecoJob{delta: delta, start: time.Now()}
	resp, err := env.client.Post(env.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	job.submit = time.Since(job.start)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, errRejected
	case resp.StatusCode != http.StatusAccepted:
		return nil, fmt.Errorf("submit: status %d", resp.StatusCode)
	case err != nil:
		return nil, fmt.Errorf("submit: %w", err)
	}
	if _, err := env.get("/v1/jobs/" + st.ID + "/events"); err != nil {
		return nil, err
	}
	status, err := env.get("/v1/jobs/" + st.ID)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(status, &job.status); err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	if job.status.State != serve.StateDone {
		return job, nil // check reports the job's end state
	}
	fetch := time.Now()
	if job.def, err = env.get("/v1/jobs/" + st.ID + "/def"); err != nil {
		return nil, err
	}
	job.defFetch = time.Since(fetch)
	job.latency = time.Since(job.start)
	return job, nil
}

func (env *ecoEnv) get(path string) ([]byte, error) {
	resp, err := env.client.Get(env.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// check verifies a daemon job's output: the job is done, its DEF
// re-parses into a constraint-clean placement, and the re-read HPWL
// (under the job's delta) matches the reported one within DBU rounding.
func (env *ecoEnv) check(job *ecoJob) error {
	st := job.status
	if st.State != serve.StateDone || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	doc, err := lefdef.ParseDEF(job.def, "placed.def")
	if err != nil {
		return fmt.Errorf("job %s: DEF does not re-parse: %w", st.ID, err)
	}
	placed, err := lefdef.ToDesign(doc, env.lef)
	if err != nil {
		return fmt.Errorf("job %s: DEF does not convert: %w", st.ID, err)
	}
	if err := lefdef.ApplyPhys(placed, env.spec.Phys, doc, env.lef, env.spec.Snap); err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	if rep := placed.ConstraintViolations(); !rep.Clean() {
		return fmt.Errorf("job %s: placement violates constraints: %s", st.ID, rep)
	}
	// The DEF carries the original nets; the reported HPWL is of the
	// post-delta netlist.
	if job.delta >= 0 {
		if err := env.deltas[job.delta].Apply(placed); err != nil {
			return fmt.Errorf("job %s: %w", st.ID, err)
		}
	}
	// Snapping moves each coordinate by at most half a DBU, so each
	// net's bounding box grows or shrinks by at most 2/DBU.
	tol := 2*float64(len(placed.Nets))/float64(doc.DBU) + 1e-9*st.Result.HPWL
	if got := placed.HPWL(); math.Abs(got-st.Result.HPWL) > tol {
		return fmt.Errorf("job %s: re-read hpwl %v differs from reported %v by more than %v", st.ID, got, st.Result.HPWL, tol)
	}
	return nil
}

// ecoLoop is one measured closed loop's outcome.
type ecoLoop struct {
	jobs     []*ecoJob
	stats    jobStats
	rejected int
}

// loop drives the daemon with ep.Clients closed-loop clients until
// both the run's duration has passed and ep.MinJobs jobs were
// attempted.
func (env *ecoEnv) loop(r *run, ep ecoWorkload, traced bool) *ecoLoop {
	lp := &ecoLoop{}
	var mu sync.Mutex
	attempted := 0
	before := readMem()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < ep.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				mu.Lock()
				elapsed := time.Since(start)
				stop := elapsed >= maxLoop || elapsed >= r.Seconds && attempted >= ep.MinJobs
				if !stop {
					attempted++
					r.attempted++
				}
				mu.Unlock()
				if stop {
					return
				}
				delta := (c + i) % len(env.deltas)
				job, err := env.do(env.ecoSpec(delta), delta)
				if err == nil {
					err = env.check(job)
				}
				if err == nil && traced {
					job.stages = env.trace(r, job)
				}
				mu.Lock()
				switch {
				case errors.Is(err, errRejected):
					lp.rejected++
					r.fail("daemon-eco job (seed %d, delta %d): %v", r.Seed, delta, err)
				case err != nil:
					r.fail("daemon-eco job (seed %d, delta %d): %v", r.Seed, delta, err)
				default:
					lp.jobs = append(lp.jobs, job)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	lp.stats.elapsed = time.Since(start)
	mem := memSince(before)
	perDelta := make([][]float64, len(env.deltas))
	for _, job := range lp.jobs {
		res := job.status.Result
		lp.stats.wall = append(lp.stats.wall, job.latency.Seconds())
		lp.stats.overlap = append(lp.stats.overlap, res.MacroOverlap)
		perDelta[job.delta] = append(perDelta[job.delta], res.HPWL)
	}
	// hpwl is the median over deltas of each delta's median, so the
	// figure does not depend on how many jobs each delta got.
	for _, h := range perDelta {
		if len(h) > 0 {
			lp.stats.hpwl = append(lp.stats.hpwl, median(h))
		}
	}
	if n := float64(len(lp.jobs)); n > 0 {
		lp.stats.mem = []memDelta{{bytes: mem.bytes / n, mallocs: mem.mallocs / n, gcs: mem.gcs / n}}
	}
	return lp
}

// trace records a traced job's client spans and, from the daemon's
// event log, its server-side stage spans; it returns the summed
// duration of each stage.
func (env *ecoEnv) trace(r *run, job *ecoJob) map[string]time.Duration {
	st := job.status
	id := 0
	_, _ = fmt.Sscanf(st.ID, "job-%d", &id) // an unnumbered id files the spans under job 0
	root := r.tr.add(id, 0, "job", job.start, job.start.Add(job.latency))
	r.tr.add(id, root, "serve.submit", job.start, job.start.Add(job.submit))
	r.tr.add(id, root, "serve.queue", st.Created, st.Started)
	running := r.tr.add(id, root, "serve.run", st.Started, st.Finished)
	fetch := job.start.Add(job.latency - job.defFetch)
	r.tr.add(id, root, "serve.def_fetch", fetch, fetch.Add(job.defFetch))

	stages := map[string]time.Duration{}
	j, ok := env.srv.Job(st.ID)
	if !ok {
		return stages
	}
	evs, _ := j.EventsSince(0)
	open := map[string]time.Time{}
	for _, ev := range evs {
		if ev.Type != "stage" {
			continue
		}
		if name, ok := strings.CutSuffix(ev.Data, " start"); ok {
			open[name] = ev.Time
			continue
		}
		name, _, ok := strings.Cut(ev.Data, " done in ")
		if t0, started := open[name]; ok && started {
			r.tr.add(id, running, "core."+name, t0, ev.Time)
			stages[name] += ev.Time.Sub(t0)
			delete(open, name)
		}
	}
	return stages
}

// perLayer fills the daemon-side per-layer metrics from the traced
// loop; plain is the untraced loop of the same run.
func (lp *ecoLoop) perLayer(r *run, plain *ecoLoop) {
	var submit, queue, overhead, fetch, wall, pre, pt, fin, other []float64
	var warm, probes, hits, lookups float64
	for _, job := range lp.jobs {
		res := job.status.Result
		st := job.stages
		submit = append(submit, millis(job.submit))
		queue = append(queue, job.status.Started.Sub(job.status.Created).Seconds())
		overhead = append(overhead, job.latency.Seconds()-res.WallSeconds)
		fetch = append(fetch, millis(job.defFetch))
		wall = append(wall, res.WallSeconds)
		pre = append(pre, st["preprocess"].Seconds())
		pt = append(pt, st["pretrain"].Seconds())
		fin = append(fin, st["finalize"].Seconds())
		other = append(other, res.WallSeconds-(st["preprocess"]+st["pretrain"]+st["finalize"]).Seconds())
		if res.EcoWarm {
			warm++
		}
		probes += float64(res.MovesProbed)
		hits += float64(res.CacheHits)
		lookups += float64(res.CacheHits + res.CacheMisses)
	}
	m := r.metrics
	n := float64(len(lp.jobs))
	m["trace.overhead_ratio"] = ratio(median(lp.stats.wall), median(plain.stats.wall))
	m["core.preprocess_s"] = median(pre)
	m["core.pretrain_s"] = median(pt)
	m["core.search_s"] = 0
	m["core.finalize_s"] = median(fin)
	m["core.other_s"] = median(other)
	m["eco.run_s_p50"] = median(wall)
	m["eco.probes_per_s"] = ratio(probes, sum(wall))
	m["eco.warm_ratio"] = ratio(warm, n)
	m["eco.cache_hit_ratio"] = ratio(hits, lookups)
	cacheMetrics(r, hits, lookups)
	m["serve.submit_ms_p50"] = median(submit)
	m["serve.queue_wait_s_p50"] = median(queue)
	m["serve.overhead_s_p50"] = median(overhead)
	m["serve.def_fetch_ms_p50"] = median(fetch)
	m["serve.rejected"] = float64(lp.rejected + plain.rejected)
	// ECO jobs neither pre-train (their state is warm) nor run the
	// tree search.
	for _, name := range []string{
		"rl.episodes_per_s", "rl.nn_s",
		"oracle.pretrain_calls", "oracle.search_calls", "oracle.pretrain_s", "oracle.search_s",
		"mcts.explorations_per_s", "mcts.terminal_evals", "mcts.eval_calls", "mcts.eval_busy_s",
		"mcts.eval_batch_mean", "mcts.self_s", "mcts.worker_panics", "mcts.w1_search_s",
		"mcts.w2_speedup", "mcts.hpwl_vs_rl",
	} {
		m[name] = 0
	}
}

// probe runs the single-layer probes on a placer built, as an ECO job
// builds it, over the first delta's design.
func (env *ecoEnv) probe(r *run, def []byte) error {
	const jobID = 0
	id := r.tr.begin(jobID, 0, "probes")
	defer r.tr.end(id)
	d := env.design.Clone()
	if err := env.deltas[0].Apply(d); err != nil {
		return err
	}
	p, err := core.New(d, env.spec.Options())
	if err != nil {
		return err
	}
	if err := p.Preprocess(); err != nil {
		return err
	}
	anchors := rl.RandomEpisode(p.Env.Clone(), rng.New(r.Seed).Split("probe-anchors"))
	probeOracle(r, jobID, id, p)
	probeAgent(r, jobID, id, p)
	probePlacement(r, jobID, id, p, d, anchors)
	probeLEFDEF(r, jobID, id, []byte(env.spec.LEF), def)
	probeGEMM(r, jobID, id)
	return nil
}
