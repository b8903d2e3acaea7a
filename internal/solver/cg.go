// Package solver provides the numerical kernels the placer relies on:
// a preconditioned conjugate-gradient solver for the sparse symmetric
// positive-definite systems arising in quadratic placement, and a
// dense simplex solver for the small linear programs used during
// sequence-pair macro legalization (Eq. 3 of the paper).
package solver

import (
	"fmt"
	"math"
)

// SparseSym is a symmetric sparse matrix in coordinate-accumulated CSR
// form, specialised for quadratic-placement Laplacians: the diagonal
// is stored densely, off-diagonals as adjacency lists. Only one
// triangle needs to be Add-ed; entries are mirrored automatically.
type SparseSym struct {
	n    int
	diag []float64
	cols [][]int32
	vals [][]float64
}

// NewSparseSym returns an n×n zero matrix.
func NewSparseSym(n int) *SparseSym {
	return &SparseSym{
		n:    n,
		diag: make([]float64, n),
		cols: make([][]int32, n),
		vals: make([][]float64, n),
	}
}

// AddDiag adds v to entry (i, i).
func (m *SparseSym) AddDiag(i int, v float64) { m.diag[i] += v }

// Add adds v to entries (i, j) and (j, i), i != j. Duplicate (i, j)
// pairs accumulate.
func (m *SparseSym) Add(i, j int, v float64) {
	if i == j {
		m.diag[i] += v
		return
	}
	m.addHalf(i, j, v)
	m.addHalf(j, i, v)
}

func (m *SparseSym) addHalf(i, j int, v float64) {
	// Linear probe for an existing column; adjacency lists in
	// placement Laplacians are short, and accumulation keeps them so.
	for k, c := range m.cols[i] {
		if int(c) == j {
			m.vals[i][k] += v
			return
		}
	}
	m.cols[i] = append(m.cols[i], int32(j))
	m.vals[i] = append(m.vals[i], v)
}

// Diag returns the diagonal entry (i, i).
func (m *SparseSym) Diag(i int) float64 { return m.diag[i] }

// MulVec computes dst = M * x. dst and x must have length N.
func (m *SparseSym) MulVec(dst, x []float64) {
	for i := 0; i < m.n; i++ {
		s := m.diag[i] * x[i]
		cols := m.cols[i]
		vals := m.vals[i]
		for k := range cols {
			s += vals[k] * x[cols[k]]
		}
		dst[i] = s
	}
}

// CGResult reports how a conjugate-gradient solve terminated.
type CGResult struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// CG solves M x = b for symmetric positive-definite M using Jacobi-
// preconditioned conjugate gradients. x is used as the starting guess
// and overwritten with the solution. tol is the relative residual
// target (e.g. 1e-6); maxIter caps iterations (0 means 2*N).
func CG(m *SparseSym, x, b []float64, tol float64, maxIter int) CGResult {
	n := m.n
	if len(x) != n || len(b) != n {
		panic(fmt.Sprintf("solver: CG dimension mismatch: n=%d len(x)=%d len(b)=%d", n, len(x), len(b)))
	}
	if maxIter <= 0 {
		maxIter = 2 * n
	}
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	// Jacobi preconditioner; guard against zero diagonals.
	pre := make([]float64, n)
	for i := 0; i < n; i++ {
		d := m.diag[i]
		if d <= 0 {
			d = 1
		}
		pre[i] = 1 / d
	}

	m.MulVec(r, x)
	var bnorm float64
	for i := 0; i < n; i++ {
		r[i] = b[i] - r[i]
		bnorm += b[i] * b[i]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		bnorm = 1
	}

	var rz float64
	for i := 0; i < n; i++ {
		z[i] = pre[i] * r[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}

	res := math.Sqrt(dot(r, r)) / bnorm
	if res <= tol {
		return CGResult{Iterations: 0, Residual: res, Converged: true}
	}

	for it := 1; it <= maxIter; it++ {
		m.MulVec(ap, p)
		pap := dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			// Matrix is not SPD numerically; bail out with what we have.
			return CGResult{Iterations: it, Residual: res, Converged: false}
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		res = math.Sqrt(dot(r, r)) / bnorm
		if res <= tol {
			return CGResult{Iterations: it, Residual: res, Converged: true}
		}
		var rzNew float64
		for i := 0; i < n; i++ {
			z[i] = pre[i] * r[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return CGResult{Iterations: maxIter, Residual: res, Converged: false}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
