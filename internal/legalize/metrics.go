package legalize

import "macroplace/internal/obs"

// Macro-legalization telemetry (DESIGN.md §9). The residual-overlap
// gauge is the per-run legality signal: zero in healthy runs, nonzero
// when the separation pass could not make the placement legal.
var (
	obsRuns = obs.NewCounter("macroplace_legalize_runs_total",
		"Macro legalization passes completed.")
	obsShoveIters = obs.NewCounter("macroplace_legalize_shove_iterations_total",
		"Pairwise shove iterations spent separating residual overlap.")
	obsResidualOverlap = obs.NewGauge("macroplace_legalize_residual_overlap",
		"Total pairwise macro overlap area after the most recent pass.")
)
