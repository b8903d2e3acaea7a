package nn

import (
	"fmt"
	"runtime"
	"sync"
)

// Backend is an implementation of the fused GEMM+bias(+ReLU) kernel
// that dominates batched inference (the Conv2D im2col product). The
// flow always runs MatMulBias itself; the registry below exists so the
// benchmark harness can time every implementation on the real shapes
// and the tests can check each one against the naive oracle. A Backend
// must be safe for concurrent use from multiple goroutines.
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
	// "int8").
	Name() string
	// MatMulBias computes C = A·B + bias with an optional fused ReLU.
	MatMulBias(c, a, b, bias []float32, m, k, n int, relu bool)
}

// Backends lists the registry names accepted by NewBackend.
func Backends() []string {
	return []string{"blocked", "naive", "parallel", "int8"}
}

// NewBackend resolves a registry name to a Backend.
func NewBackend(name string) (Backend, error) {
	switch name {
	case "blocked":
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

// blockedBackend is MatMulBias itself: the register-blocked kernel
// with its large-product fan-out.
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

// parallelBackend fans row panels of C out across the shared worker
// pool at a much smaller product than the default kernel does
// (parallelMinWork instead of 1<<20). Each panel runs the same row
// kernel and fused bias/ReLU epilogue as the serial path, so the
// result is bit-identical to the blocked backend regardless of worker
// count or scheduling.
type parallelBackend struct{}

func (*parallelBackend) Name() string { return "parallel" }

func (*parallelBackend) MatMulBias(c, a, b, bias []float32, m, k, n int, relu bool) {
	matMulBias(c, a, b, bias, m, k, n, relu, parallelMinWork)
}

// workerPool is a process-wide pool of persistent GEMM workers, one
// per GOMAXPROCS at first use. Each worker owns a private Workspace so
// panel kernels that need scratch (the int8 path's packed buffers) can
// draw from it without locking or cross-worker false sharing.
type workerPool struct {
	n     int
	tasks chan poolTask
}

// poolTask is one panel of a run; every panel of a run shares its
// poolRun.
type poolTask struct {
	run *poolRun
	id  int
}

// poolRun is the state one run call shares with its panels, allocated
// once per call.
type poolRun struct {
	f    func(panel int, ws *Workspace)
	wg   sync.WaitGroup
	mu   sync.Mutex
	pval any // first panel panic, re-raised by run
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
	r := t.run
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			if r.pval == nil {
				r.pval = v
			}
			r.mu.Unlock()
		}
	}()
	ws.Reset()
	r.f(t.id, ws)
}

// runRows splits the rows [0, m) of a product into one contiguous
// panel per worker and runs rows on each. Rows of C are independent,
// so the split never changes a result bit. rows must not itself fan
// out (see run).
func (p *workerPool) runRows(m int, rows func(r0, r1 int)) {
	chunk := (m + p.n - 1) / p.n
	p.run((m+chunk-1)/chunk, func(panel int, _ *Workspace) {
		r0 := panel * chunk
		rows(r0, min(r0+chunk, m))
	})
}

// run dispatches panels tasks to the pool and blocks until all
// complete, re-panicking on the caller's goroutine if any panel
// panicked. Tasks must not themselves call run (the pool does not
// nest).
func (p *workerPool) run(panels int, f func(panel int, ws *Workspace)) {
	if panels <= 0 {
		return
	}
	r := &poolRun{f: f}
	r.wg.Add(panels)
	for i := 0; i < panels; i++ {
		p.tasks <- poolTask{run: r, id: i}
	}
	r.wg.Wait()
	if r.pval != nil {
		panic(r.pval)
	}
}
