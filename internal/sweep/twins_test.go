package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/timeseries"
)

// zeroWindInputs is testInputs with a wind shape that never generates, like
// the paper's solar-only balancing authorities: every wind investment is a
// twin of the wind-free design (explorer.Inputs.Twins). In testSpace the 20
// wind-free designs come first and each twin sits a multiple of 20 designs
// after its representative.
func zeroWindInputs(tb testing.TB) *explorer.Inputs {
	tb.Helper()
	in := testInputs(tb)
	out, err := explorer.NewInputsFromSeries(in.Site, in.Demand, timeseries.Constant(in.Demand.Len(), 0),
		in.SolarShape, in.GridCI, in.Embodied)
	if err != nil {
		tb.Fatalf("zeroWindInputs: %v", err)
	}
	return out
}

// fixtures are the inputs the byte-identity suites run on: a site where
// every design simulates its own year, and one where most designs are twins.
var fixtures = []struct {
	name   string
	inputs func(testing.TB) *explorer.Inputs
}{
	{"generating", testInputs},
	{"zero-wind", zeroWindInputs},
}

// countEvals installs an EvalHook on in that counts its calls.
func countEvals(in *explorer.Inputs) *atomic.Int64 {
	var n atomic.Int64
	in.EvalHook = func(explorer.Design) error {
		n.Add(1)
		return nil
	}
	return &n
}

// TestSweepTwinsNCDefaultSpace: NC's wind shape never generates, so a full
// DefaultSpace sweep at 8,760 h simulates 210 of its 1,470 designs, and its
// optimum and frontier equal an every-design fold in enumeration order.
func TestSweepTwinsNCDefaultSpace(t *testing.T) {
	in, err := explorer.NewInputs(grid.MustSite("NC"))
	if err != nil {
		t.Fatal(err)
	}
	calls := countEvals(in)
	space := explorer.DefaultSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	got, err := Run(context.Background(), in, space, strategy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	designs := space.Enumerate(strategy, in.AvgDemandMW())
	if len(designs) != 1470 || calls.Load() != 210 || got.Report.Evaluated != 1470 {
		t.Fatalf("EvalHook ran %d times, Evaluated %d, for %d designs; want 210, 1470 and 1470",
			calls.Load(), got.Report.Evaluated, len(designs))
	}

	ev := in.NewEvaluator()
	ev.DiscardSoCTrace = true
	var best explorer.Outcome
	var frontier explorer.ParetoSet
	for i, d := range designs {
		o, err := ev.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || betterOutcome(o, best) {
			best = o
		}
		frontier.Add(o)
	}
	if !reflect.DeepEqual(got.Optimal, best) {
		t.Fatalf("optimum %+v, every-design fold %+v", got.Optimal.Design, best.Design)
	}
	if !reflect.DeepEqual(got.Frontier, frontier.Frontier()) {
		t.Fatal("frontier differs from the every-design fold")
	}
}

// TestSweepTwinsMatchEveryDesignEvaluated: the twin-reusing checkpoint of a
// zero-wind sweep is byte-identical to the merge of ten shards, none of
// which holds a twin pair, so every design in them is evaluated.
func TestSweepTwinsMatchEveryDesignEvaluated(t *testing.T) {
	in := zeroWindInputs(t)
	calls := countEvals(in)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()

	soloPath := filepath.Join(dir, "solo.json")
	if _, err := Run(context.Background(), in, space, strategy,
		Options{BatchSize: 8, Checkpoint: CheckpointOptions{Path: soloPath}}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Swap(0); n != 20 {
		t.Fatalf("solo sweep simulated %d designs, want the 20 wind-free ones", n)
	}

	const shards = 10
	var paths []string
	for i := 1; i <= shards; i++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		if _, err := Run(context.Background(), in, space, strategy,
			Options{BatchSize: 8, Plan: Plan{Shard: Shard{Index: i, Count: shards}}, Checkpoint: CheckpointOptions{Path: path}}); err != nil {
			t.Fatalf("shard %d/%d: %v", i, shards, err)
		}
		paths = append(paths, path)
	}
	if n := calls.Load(); n != 100 {
		t.Fatalf("shards simulated %d designs, want all 100", n)
	}
	mergedPath := filepath.Join(dir, "merged.json")
	if _, err := MergeCheckpoints(mergedPath, paths...); err != nil {
		t.Fatal(err)
	}
	assertSameFileBytes(t, soloPath, mergedPath)
}

// TestSweepTwinsResumeConvergesToUninterrupted kills a zero-wind exhaustive
// sweep partway and resumes it: designs whose representative the killed run
// finished are then done without a simulation, and the final checkpoint is
// byte-identical to an uninterrupted run's.
func TestSweepTwinsResumeConvergesToUninterrupted(t *testing.T) {
	in := zeroWindInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()
	cleanPath := filepath.Join(dir, "clean.json")
	chaosPath := filepath.Join(dir, "chaos.json")

	clean, err := Run(context.Background(), in, space, strategy,
		Options{BatchSize: 8, Checkpoint: CheckpointOptions{Path: cleanPath}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	in.EvalHook = func(explorer.Design) error {
		if n.Add(1) == 10 {
			cancel()
		}
		return nil
	}
	partial, err := Run(ctx, in, space, strategy,
		Options{BatchSize: 8, Checkpoint: CheckpointOptions{Path: chaosPath, Every: 5}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	if partial.Report.Evaluated == 0 || partial.Report.Skipped == 0 {
		t.Fatalf("cancellation left nothing to restore or nothing to resume: %+v", partial.Report)
	}

	calls := countEvals(in)
	resumed, err := Run(context.Background(), in, space, strategy,
		Options{BatchSize: 8, Checkpoint: CheckpointOptions{Path: chaosPath, Every: 5, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Report.Restored != partial.Report.Evaluated || resumed.Report.Evaluated != clean.Report.Evaluated {
		t.Fatalf("resumed report %+v after partial %+v, clean %+v", resumed.Report, partial.Report, clean.Report)
	}
	if int(calls.Load())+partial.Report.Evaluated > 20 {
		t.Fatalf("killed and resumed runs simulated %d+%d designs, more than the 20 wind-free ones",
			partial.Report.Evaluated, calls.Load())
	}
	assertSameFileBytes(t, cleanPath, chaosPath)
}
