package rl

import (
	"context"
	"math"
	"testing"

	"macroplace/internal/agent"
)

// TestTrainerSkipsNaNEpisodes: a flaky oracle that returns NaN for
// some episodes must not poison the batch — training completes, the
// skips are counted, and the agent stays finite. The watchdog sees the
// same episodes in the same order whether one worker or three roll
// them out, so History and the trained weights agree bit for bit.
func TestTrainerSkipsNaNEpisodes(t *testing.T) {
	run := func(procs int) *Trainer {
		env, wl := testEnv()
		calls := 0
		flaky := func(anchors []int) float64 {
			calls++
			if calls%3 == 0 {
				return math.NaN()
			}
			return wl(anchors)
		}
		ag := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 2})
		tr := NewTrainer(Config{Episodes: 24, UpdateEvery: 8, CalibrationEpisodes: 6, Seed: 3}, ag, env, wl)
		tr.procs = procs
		tr.Calibrate() // calibrate on the healthy oracle
		tr.WL = flaky
		tr.Run()
		if tr.Faults.SkippedEpisodes == 0 {
			t.Fatalf("%d workers: NaN episodes were not skipped", procs)
		}
		if len(tr.History) != 24 {
			t.Fatalf("%d workers: history = %d entries, want all 24 (skipped episodes stay recorded)", procs, len(tr.History))
		}
		if !agentHealthy(tr.Agent) {
			t.Fatalf("%d workers: agent weights went non-finite despite the skip watchdog", procs)
		}
		return tr
	}
	one, three := run(1), run(3)
	if one.Faults != three.Faults {
		t.Errorf("faults %+v at 1 worker, %+v at 3", one.Faults, three.Faults)
	}
	if historyHash(one.History) != historyHash(three.History) {
		t.Errorf("History differs between 1 and 3 workers:\n%v\n%v", one.History, three.History)
	}
	if a, b := one.Agent.Fingerprint(), three.Agent.Fingerprint(); a != b {
		t.Errorf("trained fingerprint %#x at 1 worker, %#x at 3", a, b)
	}
}

// TestTrainerRestoresFromPoisonedUpdate (white box): once the network
// holds a NaN parameter, the next update cannot heal it — the
// watchdog must detect the poisoned weights and restore the last good
// copy within one update, with a fresh optimizer.
func TestTrainerRestoresFromPoisonedUpdate(t *testing.T) {
	tr := testTrainer(Config{Episodes: 8, UpdateEvery: 8, CalibrationEpisodes: 6, Seed: 4})
	tr.Run()
	if tr.Faults.Restores != 0 {
		t.Fatalf("healthy run restored %d times", tr.Faults.Restores)
	}

	// Poison one weight, then force another update through the guard.
	goodW0 := tr.Agent.Params()[0].W[0]
	tr.Agent.Params()[0].W[0] = float32(math.NaN())
	oldOpt := tr.opt
	tr.Cfg.Episodes = 16
	tr.Run() // continues training the same (now poisoned) agent
	if tr.Faults.Restores == 0 {
		t.Fatal("poisoned update did not trigger a restore")
	}
	if !agentHealthy(tr.Agent) {
		t.Fatal("agent still non-finite after restore")
	}
	if got := tr.Agent.Params()[0].W[0]; math.IsNaN(float64(got)) {
		t.Fatalf("poisoned weight survived the restore: %v (last good was %v)", got, goodW0)
	}
	if tr.opt == oldOpt {
		t.Fatal("optimizer was not rebuilt — poisoned Adam moments would re-poison the next step")
	}
}

// TestTrainerRunContextCancellation: a cancelled context stops
// training between episodes with Interrupted set; a background
// context matches Run exactly.
func TestTrainerRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := testTrainer(Config{Episodes: 30, UpdateEvery: 10, CalibrationEpisodes: 6, Seed: 5})
	tr.RunContext(ctx)
	if !tr.Interrupted {
		t.Fatal("cancelled training not marked Interrupted")
	}
	if len(tr.History) != 0 {
		t.Fatalf("cancelled-before-start training ran %d episodes", len(tr.History))
	}

	// Cancel mid-run via the oracle.
	ctx2, cancel2 := context.WithCancel(context.Background())
	env, wl := testEnv()
	calls := 0
	cancelling := func(anchors []int) float64 {
		calls++
		if calls == 15 {
			cancel2()
		}
		return wl(anchors)
	}
	ag := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 2})
	tr2 := NewTrainer(Config{Episodes: 50, UpdateEvery: 10, CalibrationEpisodes: 6, Seed: 6}, ag, env, cancelling)
	tr2.RunContext(ctx2)
	if !tr2.Interrupted {
		t.Fatal("mid-run cancellation not marked Interrupted")
	}
	if len(tr2.History) == 0 || len(tr2.History) >= 50 {
		t.Fatalf("history = %d episodes, want partial progress", len(tr2.History))
	}

	// Background context must equal Run for the same seed.
	a := testTrainer(Config{Episodes: 12, UpdateEvery: 6, CalibrationEpisodes: 6, Seed: 7})
	a.Run()
	b := testTrainer(Config{Episodes: 12, UpdateEvery: 6, CalibrationEpisodes: 6, Seed: 7})
	b.RunContext(context.Background())
	if len(a.History) != len(b.History) {
		t.Fatal("RunContext(Background) diverged from Run")
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("episode %d diverged: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
}

// TestTrainerReleaseThenRun: after Release, training can resume — a
// fresh optimizer and last good copy are rebuilt, the gradients come
// back, and the agent stays healthy.
func TestTrainerReleaseThenRun(t *testing.T) {
	tr := testTrainer(Config{Episodes: 8, UpdateEvery: 4, CalibrationEpisodes: 5, Seed: 9})
	tr.Run()
	tr.Release()
	if tr.opt != nil || tr.lastGood != nil || tr.workers != nil {
		t.Fatal("Release kept the optimizer, the last good copy or the workers")
	}
	tr.Run()
	if len(tr.History) != 16 {
		t.Fatalf("history = %d entries after resuming, want 16", len(tr.History))
	}
	if tr.opt == nil || tr.lastGood == nil {
		t.Fatal("resumed run did not rebuild the optimizer and last good copy")
	}
	for _, p := range tr.Agent.Params() {
		if len(p.G) != len(p.W) {
			t.Fatalf("param %s has %d gradients for %d weights after resuming", p.Name, len(p.G), len(p.W))
		}
	}
	if !agentHealthy(tr.Agent) {
		t.Fatal("resumed training left non-finite weights")
	}
}
