package nn

import (
	"fmt"
	"runtime"
	"sync"
)

// Backend is a pluggable implementation of the fused GEMM+bias(+ReLU)
// kernel that dominates batched inference (the Conv2D im2col product).
// A Backend must be safe for concurrent use from multiple goroutines:
// the batched inference kernels are documented concurrency-safe, so
// callers may share one Backend across goroutines.
//
// Contract: C = A·B + bias (bias[i] broadcast over output row i) with
// an optional fused ReLU, A (m×k), B (k×n), C (m×n) row-major. The
// float backends ("blocked", "parallel") must be bit-identical to the
// naive reference: every c[i][j] accumulates its k contributions in
// strictly increasing p order, one float32 rounding per add (see the
// tile-size comment in matmul.go). The quantized backend ("int8") is
// tolerance-gated instead — conformance tests pin both regimes.
type Backend interface {
	// Name returns the registry name ("blocked", "naive", "parallel",
	// "int8") used for flag round-trips and per-backend metrics.
	Name() string
	// MatMulBias computes C = A·B + bias with an optional fused ReLU.
	MatMulBias(c, a, b, bias []float32, m, k, n int, relu bool)
}

// DefaultBackendName is the registry name resolved from an empty
// backend selection: the cache-blocked serial kernel, bit-identical to
// the pre-backend code path.
const DefaultBackendName = "blocked"

// Backends lists the registry names accepted by NewBackend, default
// first — CLI help and spec validation share this list.
func Backends() []string {
	return []string{"blocked", "naive", "parallel", "int8"}
}

// NewBackend resolves a registry name to a Backend. The empty name
// resolves to the default blocked kernel so zero-valued configs stay
// on the seed-identical path.
func NewBackend(name string) (Backend, error) {
	switch name {
	case "", "blocked":
		return blockedBackend{}, nil
	case "naive":
		return naiveBackend{}, nil
	case "parallel":
		return &parallelBackend{}, nil
	case "int8":
		return &int8Backend{}, nil
	}
	return nil, fmt.Errorf("nn: unknown backend %q (have %v)", name, Backends())
}

// blockedBackend is the existing serial cache-blocked kernel (with the
// large-product automatic fan-out of MatMul). It is the default and is
// bit-identical to calling MatMulBias directly.
type blockedBackend struct{}

func (blockedBackend) Name() string { return "blocked" }

func (blockedBackend) MatMulBias(c, a, b, bias []float32, m, k, n int, relu bool) {
	MatMulBias(c, a, b, bias, m, k, n, relu)
}

// naiveBackend is the reference triple loop: one register accumulator
// per output element, contributions in increasing p order. It performs
// the identical float32 rounding sequence as the blocked kernel (both
// round once per add, in the same p order), so the two are bit-equal;
// it exists as the conformance oracle and a debugging fallback.
type naiveBackend struct{}

func (naiveBackend) Name() string { return "naive" }

func (naiveBackend) MatMulBias(c, a, b, bias []float32, m, k, n int, relu bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("nn: MatMulBias buffer too small")
	}
	for i := 0; i < m; i++ {
		ai := a[i*k : i*k+k]
		ci := c[i*n : i*n+n]
		bi := bias[i]
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += ai[p] * b[p*n+j]
			}
			s += bi
			if relu && s < 0 {
				s = 0
			}
			ci[j] = s
		}
	}
}

// parallelMinWork is the m·k·n product below which the parallel
// backend runs serially: sharding a tiny GEMM across the pool costs
// more in wake-ups than the arithmetic saves.
const parallelMinWork = 1 << 16

// parallelBackend shards row panels of C across a persistent worker
// pool. Each worker runs the same cache-blocked row kernel the serial
// path uses (matmulRows is row-independent and bit-identical per row)
// plus the bias/ReLU epilogue for its own panel, so the result is
// bit-identical to the serial blocked kernel regardless of worker
// count or scheduling. Unlike MatMul's automatic fan-out it reuses
// pooled goroutines (no per-call spawn) and engages at a much smaller
// product, which is what the high-rate MCTS leaf batches need.
type parallelBackend struct{}

func (*parallelBackend) Name() string { return "parallel" }

func (*parallelBackend) MatMulBias(c, a, b, bias []float32, m, k, n int, relu bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("nn: MatMulBias buffer too small")
	}
	pool := sharedPool()
	if m*k*n < parallelMinWork || pool.n == 1 || m == 1 {
		MatMulBias(c, a, b, bias, m, k, n, relu)
		return
	}
	workers := pool.n
	if workers > m {
		workers = m
	}
	chunk := (m + workers - 1) / workers
	panels := (m + chunk - 1) / chunk
	pool.run(panels, func(panel int, ws *Workspace) {
		r0 := panel * chunk
		r1 := r0 + chunk
		if r1 > m {
			r1 = m
		}
		matmulRows(c, a, b, k, n, r0, r1)
		biasReluRows(c, bias, n, r0, r1, relu)
	})
}

// biasReluRows applies the bias (+ optional ReLU) epilogue to rows
// [r0, r1) of C — the same per-element operations MatMulBias performs,
// restricted to a panel.
func biasReluRows(c, bias []float32, n, r0, r1 int, relu bool) {
	for i := r0; i < r1; i++ {
		bi := bias[i]
		ci := c[i*n : i*n+n]
		if relu {
			for j, v := range ci {
				v += bi
				if v < 0 {
					v = 0
				}
				ci[j] = v
			}
		} else {
			for j := range ci {
				ci[j] += bi
			}
		}
	}
}

// workerPool is a process-wide pool of persistent GEMM workers, one
// per GOMAXPROCS at first use. Each worker owns a private Workspace so
// panel kernels that need scratch (the int8 path's packed buffers) can
// draw from it without locking or cross-worker false sharing.
type workerPool struct {
	n     int
	tasks chan poolTask
}

type poolTask struct {
	f    func(panel int, ws *Workspace)
	id   int
	wg   *sync.WaitGroup
	mu   *sync.Mutex
	pval *any
}

var (
	poolOnce   sync.Once
	sharedOnce *workerPool
)

func sharedPool() *workerPool {
	poolOnce.Do(func() {
		sharedOnce = newWorkerPool(runtime.GOMAXPROCS(0))
	})
	return sharedOnce
}

func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = 1
	}
	p := &workerPool{n: n, tasks: make(chan poolTask)}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	ws := &Workspace{}
	for t := range p.tasks {
		p.runOne(t, ws)
	}
}

// runOne executes one panel task, capturing a panic instead of
// crashing the worker goroutine: run re-raises the first panic on the
// submitting goroutine, where callers (the mcts batcher) already
// recover kernel panics into errors.
func (p *workerPool) runOne(t poolTask, ws *Workspace) {
	defer t.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			if *t.pval == nil {
				*t.pval = r
			}
			t.mu.Unlock()
		}
	}()
	ws.Reset()
	t.f(t.id, ws)
}

// run dispatches panels tasks to the pool and blocks until all
// complete, re-panicking on the caller's goroutine if any panel
// panicked. Tasks must not themselves call run (the pool does not
// nest).
func (p *workerPool) run(panels int, f func(panel int, ws *Workspace)) {
	if panels <= 0 {
		return
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		pval any
	)
	wg.Add(panels)
	for i := 0; i < panels; i++ {
		p.tasks <- poolTask{f: f, id: i, wg: &wg, mu: &mu, pval: &pval}
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}
