package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeMedian calls fn until both minReps calls and minTime have
// passed (capped at maxReps) and returns the median call time.
func timeMedian(minReps, maxReps int, minTime time.Duration, fn func()) time.Duration {
	var ts []float64
	start := time.Now()
	for len(ts) < maxReps && (len(ts) < minReps || time.Since(start) < minTime) {
		t0 := time.Now()
		fn()
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(median(ts))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memDelta is the allocation activity between two MemStats readings.
type memDelta struct {
	bytes, mallocs, gcs float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		mallocs: float64(after.Mallocs - before.Mallocs),
		gcs:     float64(after.NumGC - before.NumGC),
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// jobStats accumulates the per-job measurements every workload reports
// as end-to-end metrics.
type jobStats struct {
	wall    []float64 // seconds per checked job
	hpwl    []float64
	overlap []float64
	mem     []memDelta
	elapsed time.Duration // wall time of the measured loop
}

func (js *jobStats) add(wall time.Duration, hpwl, overlap float64, mem memDelta) {
	js.wall = append(js.wall, wall.Seconds())
	js.hpwl = append(js.hpwl, hpwl)
	js.overlap = append(js.overlap, overlap)
	js.mem = append(js.mem, mem)
}

func (js *jobStats) endToEnd(r *run, setup []float64) {
	var allocMB []float64
	for _, m := range js.mem {
		allocMB = append(allocMB, m.bytes/(1<<20))
	}
	r.metrics["job_s_p50"] = median(js.wall)
	r.metrics["job_s_p90"] = percentile(js.wall, 0.9)
	r.metrics["jobs_per_s"] = ratio(float64(len(js.wall)), js.elapsed.Seconds())
	r.metrics["hpwl"] = median(js.hpwl)
	r.metrics["alloc_mb"] = median(allocMB)
	r.metrics["peak_rss_mb"] = peakRSSMB()
	r.metrics["setup_s"] = median(setup)
	printInfo("jobs", float64(len(js.wall)), "count")
	printInfo("macro_overlap", maxOf(js.overlap), "area")
}

// perJobRuntime fills the runtime.* per-layer metrics.
func (js *jobStats) perJobRuntime(r *run) {
	var mallocs, gcs []float64
	for _, m := range js.mem {
		mallocs = append(mallocs, m.mallocs)
		gcs = append(gcs, m.gcs)
	}
	r.metrics["runtime.mallocs_per_job"] = median(mallocs)
	r.metrics["runtime.gc_per_job"] = median(gcs)
	r.metrics["macro_overlap"] = maxOf(js.overlap)
}
