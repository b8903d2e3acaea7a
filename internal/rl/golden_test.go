package rl

import (
	"math"
	"testing"

	"macroplace/internal/agent"
	"macroplace/internal/geom"
	"macroplace/internal/grid"
)

// TestTrainerGoldenFingerprint pins a small fixed-seed pre-training run
// bit for bit: the trained agent's Fingerprint (every weight and
// BatchNorm statistic) and the per-episode History. The agent runs at
// ζ=16 with a 16-channel tower, so its convolutions use the real
// training GEMM shapes (16x144x256 forward, 144x16x256 and 16x256x144
// backward), which are large enough to fan out across cores. Any
// kernel change that reorders or splits a k-axis sum shows up here as
// a different fingerprint. The constants were recorded with the
// earlier kernels that accumulated in memory, so they also pin the
// register-blocked kernels to them.
func TestTrainerGoldenFingerprint(t *testing.T) {
	const (
		wantFingerprint = uint64(0xb0646b891e6c83a2)
		wantHistory     = uint64(0xfbd01151e91dbbe5)
	)
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
	tr.Run()

	if len(tr.History) != 8 {
		t.Fatalf("history = %d entries, want 8", len(tr.History))
	}
	h := uint64(14695981039346656037)
	for _, st := range tr.History {
		for _, w := range []uint64{uint64(st.Episode), math.Float64bits(st.Wirelength), math.Float64bits(st.Reward)} {
			h = (h ^ w) * 1099511628211
		}
	}
	if got := tr.Agent.Fingerprint(); got != wantFingerprint {
		t.Errorf("trained agent fingerprint = %#x, want %#x", got, wantFingerprint)
	}
	if h != wantHistory {
		t.Errorf("history hash = %#x, want %#x", h, wantHistory)
	}
}
