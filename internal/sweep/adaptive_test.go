package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"carbonexplorer/internal/explorer"
)

// adaptivePlan is the small refinement plan the adaptive tests share: coarse
// 3-point lattice, up to two subdivision rounds, 5% frontier tolerance.
func adaptivePlan() Plan {
	return Plan{Mode: ModeAdaptive, Tolerance: 0.05, MaxRounds: 2, CoarsePointsPerDim: 3}
}

// denseLatticeSpace expands the adaptive run's bounding box into the explicit
// dyadic lattice at the given depth — the dense grid an exhaustive sweep
// would need to match the adaptive run's final resolution.
func denseLatticeSpace(g explorer.CellGrid, space explorer.Space, avg float64, depth int) explorer.Space {
	axis := func(a int) []float64 {
		if !g.Free[a] {
			return []float64{g.Lo[a]}
		}
		n := g.PointsPerAxis(depth)
		vals := make([]float64, n)
		for k := range vals {
			vals[k] = g.Coord(a, k, depth)
		}
		return vals
	}
	battery := axis(explorer.AxisBattery)
	hours := make([]float64, len(battery))
	for i, b := range battery {
		hours[i] = b / avg
	}
	return explorer.Space{
		WindMW:             axis(explorer.AxisWind),
		SolarMW:            axis(explorer.AxisSolar),
		BatteryHours:       hours,
		ExtraCapacityFracs: axis(explorer.AxisExtra),
		DoD:                space.DoD,
		FlexibleRatio:      space.FlexibleRatio,
	}
}

// TestAdaptiveReachesDenseFrontier is the quantifying acceptance test for the
// adaptive mode: the refinement must reach the dense dyadic grid's Pareto
// frontier within the plan's tolerance while evaluating at least 10x fewer
// designs.
func TestAdaptiveReachesDenseFrontier(t *testing.T) {
	got, want := adaptiveAndDense(t, testInputs(t))
	if want.Report.Evaluated < 10*got.Report.Evaluated {
		t.Fatalf("adaptive saved too little: %d adaptive vs %d dense evaluations (want >= 10x)",
			got.Report.Evaluated, want.Report.Evaluated)
	}
	requireDenseFrontierReached(t, got, want)
}

// TestAdaptiveTwinsReachDenseFrontier makes the same comparison on the
// zero-wind fixture, whose wind axis only holds twins. The refinement
// reaches the dense frontier there too, but does not save 10x: the cell
// bounds cannot tell a cell up the dead axis from the wind-free cell it
// repeats, so every round subdivides that axis like a live one (5,664 of
// the 6,561 dense designs; see ROADMAP.md). Only the frontier is checked.
func TestAdaptiveTwinsReachDenseFrontier(t *testing.T) {
	got, want := adaptiveAndDense(t, zeroWindInputs(t))
	requireDenseFrontierReached(t, got, want)
}

// adaptiveAndDense runs the adaptive plan over testSpace and an exhaustive
// sweep of the dense dyadic lattice at the depth the refinement reached.
func adaptiveAndDense(t *testing.T, in *explorer.Inputs) (got, want Result) {
	t.Helper()
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	plan := adaptivePlan()

	got, err := Run(context.Background(), in, space, strategy, Options{Plan: plan})
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	if got.Adaptive == nil || !got.Adaptive.Converged {
		t.Fatalf("adaptive run did not converge: %+v", got.Adaptive)
	}

	g, err := explorer.NewCellGrid(space, strategy, in.AvgDemandMW(), plan.CoarsePointsPerDim)
	if err != nil {
		t.Fatalf("NewCellGrid: %v", err)
	}
	dense := denseLatticeSpace(g, space, in.AvgDemandMW(), got.Adaptive.Round)
	want, err = Run(context.Background(), in, dense, strategy, Options{})
	if err != nil {
		t.Fatalf("dense run: %v", err)
	}
	t.Logf("adaptive: %d evaluations over %d rounds (%v); dense: %d evaluations (%.1fx saved)",
		got.Report.Evaluated, got.Adaptive.Round+1, got.Adaptive.RoundEvals,
		want.Report.Evaluated, float64(want.Report.Evaluated)/float64(got.Report.Evaluated))
	return got, want
}

// requireDenseFrontierReached checks that every dense frontier point is
// dominated-within-tolerance by some adaptive frontier point, with the slack
// measured against the dense frontier's extent (the same absolute-slack rule
// pruning uses), and that the adaptive optimum is within tolerance too.
func requireDenseFrontierReached(t *testing.T, got, want Result) {
	t.Helper()
	tol := adaptivePlan().Tolerance
	opSlack, emSlack := frontierSlack(want.Frontier, tol)
	for _, q := range want.Frontier {
		ok := false
		for _, p := range got.Frontier {
			if float64(p.Operational) <= float64(q.Operational)+opSlack &&
				float64(p.Embodied) <= float64(q.Embodied)+emSlack {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("dense frontier point (op=%.0f em=%.0f) not reached within tolerance %.2f",
				float64(q.Operational), float64(q.Embodied), tol)
		}
	}
	if float64(got.Optimal.Total()) > float64(want.Optimal.Total())*(1+tol) {
		t.Fatalf("adaptive optimum %.0f worse than dense optimum %.0f beyond tolerance",
			float64(got.Optimal.Total()), float64(want.Optimal.Total()))
	}
}

// TestAdaptiveResumeConvergesToUninterrupted kills an adaptive sweep partway
// through a refinement round and resumes it: the resumed refinement must
// converge to the exact result — and the exact final checkpoint bytes — of an
// uninterrupted run, on every fixture.
func TestAdaptiveResumeConvergesToUninterrupted(t *testing.T) {
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) { testAdaptiveResumeConvergesToUninterrupted(t, f.inputs(t)) })
	}
}

func testAdaptiveResumeConvergesToUninterrupted(t *testing.T, in *explorer.Inputs) {
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()
	cleanPath := filepath.Join(dir, "clean.json")
	chaosPath := filepath.Join(dir, "chaos.json")

	clean, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Checkpoint: CheckpointOptions{Path: cleanPath, Every: 10}})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if !clean.Adaptive.Converged {
		t.Fatal("uninterrupted adaptive run did not converge")
	}
	if clean.Adaptive.Round == 0 {
		t.Fatal("refinement converged in the coarse round — nothing mid-refinement to interrupt")
	}

	// Cancel partway into round 1, after the coarse round completed: on the
	// tenth evaluation of a design off the coarse lattice. (Counting all
	// evaluations would not do: designs that reuse a twin never reach the
	// hook.)
	g, err := explorer.NewCellGrid(space, strategy, in.AvgDemandMW(), adaptivePlan().CoarsePointsPerDim)
	if err != nil {
		t.Fatalf("NewCellGrid: %v", err)
	}
	coarse := map[explorer.Design]bool{}
	for _, d := range g.RoundPoints(g.CoarseCells(), 0) {
		coarse[d] = true
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	started := 0
	in.EvalHook = func(d explorer.Design) error {
		mu.Lock()
		if !coarse[d] {
			started++
			if started == 10 {
				cancel()
			}
		}
		mu.Unlock()
		return nil
	}
	partial, err := Run(ctx, in, space, strategy,
		Options{Plan: adaptivePlan(), Checkpoint: CheckpointOptions{Path: chaosPath, Every: 5}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	if partial.Adaptive == nil || partial.Adaptive.Round != 1 {
		t.Fatalf("cancellation missed round 1: %+v", partial.Adaptive)
	}

	in.EvalHook = nil
	resumed, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Checkpoint: CheckpointOptions{Path: chaosPath, Every: 10, Resume: true}})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !resumed.Adaptive.Converged {
		t.Fatal("resumed refinement did not converge")
	}
	if resumed.Report.Restored == 0 {
		t.Fatal("resume restored nothing — the mid-round checkpoint was ignored")
	}
	if resumed.Report.Evaluated != clean.Report.Evaluated {
		t.Fatalf("resumed refinement evaluated %d designs, clean %d",
			resumed.Report.Evaluated, clean.Report.Evaluated)
	}
	if !sameOutcome(resumed.Optimal, clean.Optimal) {
		t.Fatalf("resumed optimum differs:\nresumed: %+v\nclean:   %+v",
			resumed.Optimal.Design, clean.Optimal.Design)
	}
	if len(resumed.Frontier) != len(clean.Frontier) {
		t.Fatalf("resumed frontier has %d points, clean %d", len(resumed.Frontier), len(clean.Frontier))
	}
	for i := range clean.Frontier {
		if !sameOutcome(resumed.Frontier[i], clean.Frontier[i]) {
			t.Fatalf("frontier point %d differs after resume", i)
		}
	}
	assertSameFileBytes(t, cleanPath, chaosPath)
}

// TestAdaptiveShardedMergeMatchesSingleProcess drives the sharded adaptive
// operator loop — run each shard, merge, copy the merged file back, resume —
// and requires the final converged checkpoint to be byte-identical to the
// single-process run's, on every fixture.
func TestAdaptiveShardedMergeMatchesSingleProcess(t *testing.T) {
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) { testAdaptiveShardedMergeMatchesSingleProcess(t, f.inputs(t)) })
	}
}

func testAdaptiveShardedMergeMatchesSingleProcess(t *testing.T, in *explorer.Inputs) {
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()
	soloPath := filepath.Join(dir, "solo.json")

	solo, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Checkpoint: CheckpointOptions{Path: soloPath, Every: 10}})
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	if !solo.Adaptive.Converged {
		t.Fatal("single-process adaptive run did not converge")
	}

	shardPaths := []string{filepath.Join(dir, "w1.json"), filepath.Join(dir, "w2.json")}
	mergedPath := filepath.Join(dir, "merged.json")
	shardEvals := 0
	var results [2]Result
	for cycle := 0; ; cycle++ {
		if cycle > 10 {
			t.Fatal("sharded refinement did not converge within 10 merge cycles")
		}
		for i := range shardPaths {
			plan := adaptivePlan()
			plan.Shard = Shard{Index: i + 1, Count: 2}
			res, err := Run(context.Background(), in, space, strategy,
				Options{Plan: plan, Checkpoint: CheckpointOptions{Path: shardPaths[i], Every: 5, Resume: true}})
			if err != nil {
				t.Fatalf("cycle %d shard %d: %v", cycle, i+1, err)
			}
			shardEvals += res.Report.Evaluated - res.Report.Restored
			results[i] = res
		}
		if results[0].Adaptive.Converged && results[1].Adaptive.Converged {
			break
		}
		if _, err := MergeCheckpoints(mergedPath, shardPaths...); err != nil {
			t.Fatalf("cycle %d merge: %v", cycle, err)
		}
		merged, err := os.ReadFile(mergedPath)
		if err != nil {
			t.Fatalf("read merged: %v", err)
		}
		for _, p := range shardPaths {
			if err := os.WriteFile(p, merged, 0o644); err != nil {
				t.Fatalf("republish merged checkpoint: %v", err)
			}
		}
	}

	assertSameFileBytes(t, soloPath, shardPaths[0])
	assertSameFileBytes(t, soloPath, shardPaths[1])
	if !sameOutcome(results[0].Optimal, solo.Optimal) {
		t.Fatalf("sharded optimum differs from single-process:\nsharded: %+v\nsolo:    %+v",
			results[0].Optimal.Design, solo.Optimal.Design)
	}
}

// TestAdaptiveResumeRejectsExhaustiveCheckpoint: a version-2 exhaustive
// checkpoint must not silently seed an adaptive refinement.
func TestAdaptiveResumeRejectsExhaustiveCheckpoint(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	ckpt := filepath.Join(t.TempDir(), "sweep.json")

	if _, err := Run(context.Background(), in, space, strategy,
		Options{Checkpoint: CheckpointOptions{Path: ckpt}}); err != nil {
		t.Fatalf("exhaustive run: %v", err)
	}
	_, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Checkpoint: CheckpointOptions{Path: ckpt, Resume: true}})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("adaptive resume of exhaustive checkpoint: want ErrCheckpointMismatch, got %v", err)
	}
}

// TestExhaustiveResumeRejectsAdaptiveCheckpoint is the mirror image: the
// exhaustive engine validates its space hash against the round hash in the
// version-3 file and refuses.
func TestExhaustiveResumeRejectsAdaptiveCheckpoint(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	ckpt := filepath.Join(t.TempDir(), "sweep.json")

	if _, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Checkpoint: CheckpointOptions{Path: ckpt}}); err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	_, err := Run(context.Background(), in, space, strategy,
		Options{Checkpoint: CheckpointOptions{Path: ckpt, Resume: true}})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("exhaustive resume of adaptive checkpoint: want ErrCheckpointMismatch, got %v", err)
	}
}

// TestAdaptiveConvergedFastForward: resuming a finished refinement returns
// the recorded result without evaluating a single design, and leaves the
// converged checkpoint bytes untouched.
func TestAdaptiveConvergedFastForward(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	ckpt := filepath.Join(t.TempDir(), "sweep.json")

	first, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Checkpoint: CheckpointOptions{Path: ckpt, Every: 10}})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("read converged checkpoint: %v", err)
	}

	evals := 0
	var mu sync.Mutex
	in.EvalHook = func(explorer.Design) error {
		mu.Lock()
		evals++
		mu.Unlock()
		return nil
	}
	defer func() { in.EvalHook = nil }()
	again, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Checkpoint: CheckpointOptions{Path: ckpt, Resume: true}})
	if err != nil {
		t.Fatalf("fast-forward run: %v", err)
	}
	if evals != 0 {
		t.Fatalf("fast-forward evaluated %d designs; want 0", evals)
	}
	if !again.Resumed || again.Report.Restored == 0 {
		t.Fatalf("fast-forward did not report restored progress: %+v", again.Report)
	}
	if !again.Adaptive.Converged || again.Adaptive.Round != first.Adaptive.Round {
		t.Fatalf("fast-forward progress differs: %+v vs %+v", again.Adaptive, first.Adaptive)
	}
	if again.Report.Evaluated != first.Report.Evaluated {
		t.Fatalf("fast-forward evaluated count %d, first run %d",
			again.Report.Evaluated, first.Report.Evaluated)
	}
	if !sameOutcome(again.Optimal, first.Optimal) {
		t.Fatal("fast-forward optimum differs from the recorded one")
	}
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("re-read converged checkpoint: %v", err)
	}
	if string(before) != string(after) {
		t.Fatal("fast-forward rewrote the converged checkpoint")
	}
}

// TestPlanValidation exercises the Plan knob validation that Run performs up
// front, before any evaluation.
func TestPlanValidation(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	run := func(p Plan) error {
		_, err := Run(context.Background(), in, space, strategy, Options{Plan: p})
		return err
	}
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"adaptive knob under exhaustive", Plan{Tolerance: 0.1}, "require ModeAdaptive"},
		{"rounds knob under exhaustive", Plan{MaxRounds: 2}, "require ModeAdaptive"},
		{"negative tolerance", Plan{Mode: ModeAdaptive, Tolerance: -0.1}, "out of [0, 1)"},
		{"tolerance of one", Plan{Mode: ModeAdaptive, Tolerance: 1}, "out of [0, 1)"},
		{"negative rounds", Plan{Mode: ModeAdaptive, MaxRounds: -1}, "negative MaxRounds"},
		{"one-point lattice", Plan{Mode: ModeAdaptive, CoarsePointsPerDim: 1}, "at least 2"},
		{"unknown mode", Plan{Mode: Mode(7)}, "unknown plan mode"},
		{"bad shard", Plan{Shard: Shard{Index: 3, Count: 2}}, "out of range"},
	}
	for _, tc := range cases {
		err := run(tc.plan)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

// assertSameFileBytes fails unless the two files have identical contents.
func assertSameFileBytes(t *testing.T, a, b string) {
	t.Helper()
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatalf("read %s: %v", a, err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatalf("read %s: %v", b, err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("checkpoints differ:\n%s:\n%s\n%s:\n%s", a, ab, b, bb)
	}
}

// BenchmarkAdaptiveVsDense times an adaptive refinement against the
// exhaustive sweep of the dense lattice the refinement resolves to — the
// benchmark evidence behind the evals-saved numbers in BENCH_sweep.json.
// The custom metrics report the evaluation counts so a regression in
// pruning effectiveness (adaptive evaluating more of the lattice) shows up
// even if per-design time is unchanged.
func BenchmarkAdaptiveVsDense(b *testing.B) {
	in := testInputs(b)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	plan := adaptivePlan()
	g, err := explorer.NewCellGrid(space, strategy, in.AvgDemandMW(), plan.CoarsePointsPerDim)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("adaptive", func(b *testing.B) {
		evals := 0
		for i := 0; i < b.N; i++ {
			res, err := Run(context.Background(), in, space, strategy, Options{Plan: plan})
			if err != nil {
				b.Fatal(err)
			}
			evals = res.Report.Evaluated
		}
		b.ReportMetric(float64(evals), "evals")
	})
	b.Run("dense", func(b *testing.B) {
		dense := denseLatticeSpace(g, space, in.AvgDemandMW(), plan.MaxRounds)
		evals := 0
		for i := 0; i < b.N; i++ {
			res, err := Run(context.Background(), in, dense, strategy, Options{})
			if err != nil {
				b.Fatal(err)
			}
			evals = res.Report.Evaluated
		}
		b.ReportMetric(float64(evals), "evals")
	})
}
