package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/mcts"
)

// span is one timed call into a layer. Spans of one job share Job;
// Parent is the id of the enclosing span (0 for a job's root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the spans of a traced run in memory until write. A nil
// tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(job, parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(job, parent, name, time.Now(), time.Time{})
}

// end closes a span begin opened.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now.Sub(t.t0).Seconds()
}

// add records a span from its timestamps and returns its id (0 when
// tracing is off). A zero end leaves the span open for end.
func (t *tracer) add(job, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := span{ID: id, Parent: parent, Job: job, Name: name, Start: start.Sub(t.t0).Seconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Seconds()
	}
	t.spans = append(t.spans, s)
	return id
}

// time runs fn inside a span and returns fn's duration.
func (t *tracer) time(job, parent int, name string, fn func()) time.Duration {
	id := t.begin(job, parent, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans with the run's provenance as JSON.
func (t *tracer) write(path string, prov map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(map[string]any{"provenance": prov, "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}

// printInfo prints a figure that is reported but is not one of the
// run's listed metrics.
func printInfo(name string, v float64, unit string) {
	fmt.Printf("info %-39s %14.6g %s\n", name, v, unit)
}

// condition prints whether a traced workload loads the layer it was
// chosen for.
func condition(what string, ok bool, detail string) {
	verdict := "met"
	if !ok {
		verdict = "NOT MET"
	}
	fmt.Printf("condition %s: %s (%s)\n", what, verdict, detail)
}

// cachedEvaluator is the evaluator surface core hands to
// Options.WrapEvaluator: the search type-asserts Stats, Probe and
// EvaluateBatchInto, so a shim that dropped any of them would change
// the program it measures.
type cachedEvaluator interface {
	mcts.Evaluator
	Probe(sp, sa []float64, t int) (agent.Output, bool)
	EvaluateBatchInto(in []agent.BatchInput, out []agent.Output)
	Stats() (hits, misses uint64)
}

// evalShim counts and times the evaluations that reach the network
// path (Forward and batch calls); cache probes pass through untimed.
type evalShim struct {
	inner  cachedEvaluator
	calls  atomic.Int64
	inputs atomic.Int64
	busyNs atomic.Int64
}

// evalCounts is a snapshot of the shim's counters.
type evalCounts struct {
	calls, inputs int64
	busy          time.Duration
}

func (s *evalShim) snapshot() evalCounts {
	return evalCounts{calls: s.calls.Load(), inputs: s.inputs.Load(), busy: time.Duration(s.busyNs.Load())}
}

func (a evalCounts) sub(b evalCounts) evalCounts {
	return evalCounts{calls: a.calls - b.calls, inputs: a.inputs - b.inputs, busy: a.busy - b.busy}
}

func (s *evalShim) record(n int, start time.Time) {
	s.busyNs.Add(int64(time.Since(start)))
	s.calls.Add(1)
	s.inputs.Add(int64(n))
}

func (s *evalShim) Forward(sp, sa []float64, t int) agent.Output {
	start := time.Now()
	out := s.inner.Forward(sp, sa, t)
	s.record(1, start)
	return out
}

func (s *evalShim) EvaluateBatch(in []agent.BatchInput) []agent.Output {
	start := time.Now()
	out := s.inner.EvaluateBatch(in)
	s.record(len(in), start)
	return out
}

func (s *evalShim) EvaluateBatchInto(in []agent.BatchInput, out []agent.Output) {
	start := time.Now()
	s.inner.EvaluateBatchInto(in, out)
	s.record(len(in), start)
}

func (s *evalShim) Probe(sp, sa []float64, t int) (agent.Output, bool) {
	return s.inner.Probe(sp, sa, t)
}

func (s *evalShim) Stats() (hits, misses uint64) { return s.inner.Stats() }
