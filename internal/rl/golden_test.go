package rl

import (
	"math"
	"testing"

	"macroplace/internal/agent"
	"macroplace/internal/geom"
	"macroplace/internal/grid"
)

// TestTrainerGoldenFingerprint pins a small fixed-seed pre-training run
// bit for bit: the trained agent's Fingerprint (its shape and every
// weight) and the per-episode History. The agent runs at ζ=16 with a
// 16-channel tower, so its convolutions use the real training GEMM
// shapes (16x144x256 forward, 144x16x256 and 16x256x144 backward). Any
// kernel change that reorders or splits a k-axis sum shows up here as
// a different fingerprint. The run repeats at 1, 2 and 3 workers:
// rollouts in parallel and the ordered gradient reduction of the
// update must not move a bit either. The constants were recorded with
// the earlier sequential trainer whose kernels accumulated in memory,
// so they also pin the register-blocked kernels and the parallel
// trainer to it.
func TestTrainerGoldenFingerprint(t *testing.T) {
	const (
		wantFingerprint = uint64(0x1f3650c1a78191f1)
		wantHistory     = uint64(0xfbd01151e91dbbe5)
	)
	for _, procs := range []int{1, 2, 3} {
		g := grid.New(geom.NewRect(0, 0, 16, 16), 16)
		shape := grid.Shape{GW: 1, GH: 1, Util: []float64{0.7}, W: 1, H: 1, Area: 0.7}
		env := grid.NewEnv(g, []grid.Shape{shape, shape, shape, shape}, nil)
		wl := func(anchors []int) float64 {
			var total float64
			for i, a := range anchors {
				gx, gy := g.Coords(a)
				dx, dy := float64(gx)-5.5, float64(gy)-9.25
				total += math.Sqrt(dx*dx+dy*dy) * float64(i+1)
			}
			return total
		}
		ag := agent.New(agent.Config{Zeta: 16, Channels: 16, ResBlocks: 1, MaxSteps: 4, Seed: 11})
		tr := NewTrainer(Config{Episodes: 8, UpdateEvery: 4, CalibrationEpisodes: 6, Seed: 12}, ag, env, wl)
		tr.procs = procs
		tr.Run()

		if len(tr.History) != 8 {
			t.Fatalf("%d workers: history = %d entries, want 8", procs, len(tr.History))
		}
		if got := tr.Agent.Fingerprint(); got != wantFingerprint {
			t.Errorf("%d workers: trained agent fingerprint = %#x, want %#x", procs, got, wantFingerprint)
		}
		if h := historyHash(tr.History); h != wantHistory {
			t.Errorf("%d workers: history hash = %#x, want %#x", procs, h, wantHistory)
		}
	}
}

// historyHash is FNV-1a over every History entry's episode number and
// the float64 bits of its wirelength and reward.
func historyHash(hist []EpisodeStat) uint64 {
	h := uint64(14695981039346656037)
	for _, st := range hist {
		for _, w := range []uint64{uint64(st.Episode), math.Float64bits(st.Wirelength), math.Float64bits(st.Reward)} {
			h = (h ^ w) * 1099511628211
		}
	}
	return h
}
