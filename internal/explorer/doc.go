// Package explorer is Carbon Explorer's core: it evaluates datacenter
// designs — combinations of renewable-energy investment, battery capacity,
// and extra server capacity for carbon-aware scheduling — against hourly
// supply and demand data, accounts for operational and embodied carbon, and
// searches the design space for the carbon-optimal configuration (the
// pipeline of the paper's Figures 2 and 13).
//
// Evaluate scores one Design (Section 5.2's per-point evaluation: coverage,
// operational carbon, and the Section 5.1 embodied-carbon charges). Search
// exhaustively sweeps a Space under one of the four Strategies and
// materializes every Outcome — the computation behind Figures 14 and 15.
// Search is fault-tolerant: a failing or panicking design is contained
// (Evaluator.EvaluateSafe), excluded from the optimum, and reported in
// SearchReport.
//
// EvaluateAll is the one evaluation pool: Search and every sweep batch of
// internal/sweep evaluate through it, on per-worker Evaluators, simulating
// each twin class (Twins) once. For dense grids and long-running sweeps,
// internal/sweep provides a streaming counterpart built on that pool:
// bounded memory via batch folding into a running optimum and ParetoSet,
// checkpoint/resume, and a retry pass for transient failures.
package explorer
