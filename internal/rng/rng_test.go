package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must yield identical streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/50 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children with different labels must differ; same construction
	// must reproduce.
	p1, p2 := New(7), New(7)
	a1 := p1.Split("alpha")
	b1 := p1.Split("beta")
	a2 := p2.Split("alpha")
	b2 := p2.Split("beta")
	if a1.Int63() != a2.Int63() {
		t.Error("same-label splits from identical parents must match")
	}
	if b1.Int63() != b2.Int63() {
		t.Error("same-label splits from identical parents must match")
	}
	c1, c2 := New(7).Split("x"), New(7).Split("y")
	if c1.Int63() == c2.Int63() {
		t.Error("different labels should yield different streams")
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestIntRangeBounds(t *testing.T) {
	r := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange out of bounds: %v", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Errorf("IntRange never produced %d", v)
		}
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntRange(5, 3) should panic")
		}
	}()
	New(1).IntRange(5, 3)
}

func TestChoiceWeighted(t *testing.T) {
	r := New(5)
	counts := [3]int{}
	w := []float64{0, 1, 3}
	for i := 0; i < 8000; i++ {
		c := r.Choice(w)
		if c < 0 || c > 2 {
			t.Fatalf("Choice out of range: %d", c)
		}
		counts[c]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.5 {
		t.Errorf("weight-3 / weight-1 ratio = %v, want ≈3", ratio)
	}
}

// TestPickMatchesChoice: Pick over the draw that Choice would take
// returns Choice's index, on two identical streams.
func TestPickMatchesChoice(t *testing.T) {
	weights := [][]float64{
		{0.1, 0, 0.5, 0.25, 0, 0.15},
		{0, 0, 3},
		{1e-300, 2, -1, 7},
	}
	a, b := New(31), New(31)
	for k := 0; k < 300; k++ {
		w := weights[k%len(weights)]
		if got, want := Pick(w, b.Float64()), a.Choice(w); got != want {
			t.Fatalf("draw %d: Pick = %d, Choice = %d", k, got, want)
		}
	}
	if a.Int63() != b.Int63() {
		t.Fatal("Pick's caller and Choice consumed their streams differently")
	}
	if Pick([]float64{0, -1}, 0.5) != -1 || Pick(nil, 0.5) != -1 {
		t.Fatal("Pick with no positive weight should return -1")
	}
}

func TestChoiceDegenerate(t *testing.T) {
	r := New(6)
	if got := r.Choice(nil); got != -1 {
		t.Errorf("Choice(nil) = %d, want -1", got)
	}
	if got := r.Choice([]float64{0, 0, 0}); got != -1 {
		t.Errorf("Choice(all zero) = %d, want -1", got)
	}
	if got := r.Choice([]float64{0, 0, 5}); got != 2 {
		t.Errorf("Choice(single positive) = %d, want 2", got)
	}
	// Negative weights are ignored.
	if got := r.Choice([]float64{-1, 0, 2}); got != 2 {
		t.Errorf("Choice(negative ignored) = %d, want 2", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1.1) {
			t.Fatal("Bernoulli(>1) returned false")
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(10)
	s := []int{1, 2, 3, 4, 5}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 15 {
		t.Errorf("shuffle lost elements: %v", s)
	}
}

func TestNormFloat64Distribution(t *testing.T) {
	r := New(12)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("variance = %v, want ≈1", variance)
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(14)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}
