// Command perfbench is the repository benchmark. It runs one workload
// through the placer's Go API, checks every output, and prints the
// metrics named in BENCHMARK.json as the last line of standard output:
// the end-to-end metrics with -trace 0, the per-layer metrics with
// -trace 1. See README.md in this directory for the workloads, the
// metrics and how to read the span file a traced run writes.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload flow-train --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload: measure runs it for the run's
// duration and fills the run's metrics, failures and spans; params
// are recorded with every result.
type workload struct {
	params  any
	measure func(r *run) error
}

var workloads = map[string]workload{
	"flow-train":  {flowTrain, flowTrain.measure},
	"flow-search": {flowSearch, flowSearch.measure},
	"daemon-eco":  {ecoParams, daemonEco},
}

// run carries one invocation's settings and everything it measures.
type run struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool

	// tr records spans; nil when tracing is off.
	tr *tracer
	// metrics holds the values for the end-to-end (untraced run) or
	// per-layer (traced run) metric set.
	metrics map[string]float64
	// attempted and failed count jobs of the measured loops.
	attempted, failed int
	// mismatch records checks that fail the run as a whole (outside
	// any single job), such as traced-versus-untraced divergence.
	mismatch []string
}

// fail records one failed job or check and prints it.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// mismatchf records a failed whole-run check.
func (r *run) mismatchf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mismatch = append(r.mismatch, msg)
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", msg)
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run: flow-train, flow-search or daemon-eco")
	seed := flag.Int64("seed", 1, "workload seed: drives the jobs' seeds, the ECO deltas and the probe allocations")
	seconds := flag.Float64("seconds", 10, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have flow-train, flow-search, daemon-eco)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	// A GOMAXPROCS above the CPU count measures scheduler contention,
	// not the program: refuse rather than record a misleading row.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	bench, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}

	r := &run{
		Workload: *name,
		Seed:     *seed,
		Seconds:  time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		metrics:  map[string]float64{},
	}
	if r.Trace {
		r.tr = newTracer()
	}
	prov := provenance(r)
	provLine, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Println(string(provLine))

	if err := wl.measure(r); err != nil {
		return fmt.Errorf("%s: %w", r.Workload, err)
	}

	want := bench.EndToEnd
	if r.Trace {
		want = bench.PerLayer
	}
	res := result{
		Correct:   r.failed == 0 && len(r.mismatch) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %q listed in BENCHMARK.json was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-44s %14.6g %s\n", m.Name, v, m.Unit)
	}
	for name := range r.metrics {
		if !listed(want, name) {
			return fmt.Errorf("measured metric %q is not listed in BENCHMARK.json", name)
		}
	}
	if r.attempted > 0 {
		fmt.Printf("failed_frac %d/%d = %g\n", r.failed, r.attempted, float64(r.failed)/float64(r.attempted))
	}
	if r.Trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed))
		if err := r.tr.write(path, prov); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", r.tr.len(), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func listed(specs []metricSpec, name string) bool {
	for _, m := range specs {
		if m.Name == name {
			return true
		}
	}
	return false
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric list (run from the repository root): %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &b, nil
}

// provenance records where and on what a result was measured. The
// checkout a benchmark runs in need not be a git repository, so the
// source hash identifies the code when no VCS revision was stamped.
func provenance(r *run) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":      r.Workload,
		"seed":          r.Seed,
		"seconds":       r.Seconds.Seconds(),
		"trace":         r.Trace,
		"params":        workloads[r.Workload].params,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceHash("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root,
// skipping dot directories (build outputs, VCS metadata).
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(f))
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
