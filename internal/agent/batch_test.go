package agent

import (
	"sync"
	"testing"
)

func batchTestAgent() *Agent {
	return New(Config{Zeta: 4, Channels: 6, ResBlocks: 2, MaxSteps: 5, Seed: 17})
}

// batchStates builds n distinct states with a mix of masked and open
// actions.
func batchStates(n, cells int) []BatchInput {
	in := make([]BatchInput, n)
	for b := range in {
		sp := make([]float64, cells)
		sa := make([]float64, cells)
		for i := range sp {
			sp[i] = float64((i+b*3)%7) / 7
			if (i+b)%3 != 0 {
				sa[i] = float64(i%5+1) / 5
			}
		}
		in[b] = BatchInput{SP: sp, SA: sa, T: b % 5}
	}
	return in
}

// TestEvaluateBatchMatchesForward: each batched output must be
// bit-identical to a sequential Forward of that state alone. This is
// the contract the parallel MCTS determinism story rests on: batching
// may regroup work but never change a single result.
func TestEvaluateBatchMatchesForward(t *testing.T) {
	ag := batchTestAgent()
	cells := ag.Cfg.Zeta * ag.Cfg.Zeta
	for _, batch := range []int{1, 2, 5} {
		in := batchStates(batch, cells)
		outs := ag.EvaluateBatch(in)
		if len(outs) != batch {
			t.Fatalf("batch %d: got %d outputs", batch, len(outs))
		}
		for b, o := range outs {
			want := ag.Forward(in[b].SP, in[b].SA, in[b].T)
			if o.Value != want.Value {
				t.Fatalf("batch %d sample %d: value %v != %v", batch, b, o.Value, want.Value)
			}
			for i := range want.Probs {
				if o.Probs[i] != want.Probs[i] {
					t.Fatalf("batch %d sample %d prob %d: %v != %v",
						batch, b, i, o.Probs[i], want.Probs[i])
				}
			}
		}
	}
}

// TestEvaluateBatchIsPure: the batched path must leave the stateful
// training machinery untouched — Forward results before and after are
// identical.
func TestEvaluateBatchIsPure(t *testing.T) {
	ag := batchTestAgent()
	cells := ag.Cfg.Zeta * ag.Cfg.Zeta
	in := batchStates(3, cells)
	before := ag.Forward(in[0].SP, in[0].SA, in[0].T)
	ag.EvaluateBatch(in)
	after := ag.Forward(in[0].SP, in[0].SA, in[0].T)
	if before.Value != after.Value {
		t.Fatal("EvaluateBatch changed subsequent Forward results")
	}
}

// TestEvaluateBatchConcurrent hammers one agent from many goroutines
// (run under -race): EvaluateBatch is documented concurrency-safe, and
// every concurrent result must equal the serial one.
func TestEvaluateBatchConcurrent(t *testing.T) {
	ag := batchTestAgent()
	cells := ag.Cfg.Zeta * ag.Cfg.Zeta
	in := batchStates(4, cells)
	want := ag.EvaluateBatch(in)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				outs := ag.EvaluateBatch(in)
				for b := range outs {
					if outs[b].Value != want[b].Value {
						errs <- "concurrent value mismatch"
						return
					}
					for i := range outs[b].Probs {
						if outs[b].Probs[i] != want[b].Probs[i] {
							errs <- "concurrent prob mismatch"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestEvaluateBatchValidatesLengths: malformed states must be rejected
// loudly, not silently mis-evaluated.
func TestEvaluateBatchValidatesLengths(t *testing.T) {
	ag := batchTestAgent()
	defer func() {
		if recover() == nil {
			t.Fatal("short SP slice must panic")
		}
	}()
	ag.EvaluateBatch([]BatchInput{{SP: []float64{1}, SA: make([]float64, 16), T: 0}})
}

func TestEvaluateBatchEmpty(t *testing.T) {
	if out := batchTestAgent().EvaluateBatch(nil); out != nil {
		t.Fatalf("empty batch: got %v", out)
	}
}
