package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
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
		if i == 0 || explorer.Better(o, best) {
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

// checkpointStatus decodes the per-design status string of the checkpoint
// at path.
func checkpointStatus(t *testing.T, path string) []byte {
	t.Helper()
	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	status, err := ck.statusBytes()
	if err != nil {
		t.Fatal(err)
	}
	return status
}

// TestSweepTwinsInBatchSimulatedOnce: at the default batch size the first
// batch of a zero-wind sweep holds 20 representatives and 44 of their twins;
// the shared pool simulates each twin class once, so the whole sweep runs 20
// simulations, and its checkpoint is byte-identical to a BatchSize 8 run's,
// whose twins mostly land in later batches.
func TestSweepTwinsInBatchSimulatedOnce(t *testing.T) {
	in := zeroWindInputs(t)
	calls := countEvals(in)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()

	defaultPath := filepath.Join(dir, "default.json")
	res, err := Run(context.Background(), in, space, strategy,
		Options{Checkpoint: CheckpointOptions{Path: defaultPath}})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Swap(0); n != 20 || res.Report.Evaluated != 100 {
		t.Fatalf("default-batch sweep simulated %d designs and evaluated %d; want 20 and 100", n, res.Report.Evaluated)
	}
	smallPath := filepath.Join(dir, "batch8.json")
	if _, err := Run(context.Background(), in, space, strategy,
		Options{BatchSize: 8, Checkpoint: CheckpointOptions{Path: smallPath}}); err != nil {
		t.Fatal(err)
	}
	assertSameFileBytes(t, defaultPath, smallPath)
}

// TestSweepTwinsOfFailedRepresentativeInBatch: when the hook permanently
// fails one representative, each of its twins — three in the same batch,
// one in the next — is evaluated, and hooked, on its own. The statuses and
// failure list equal those of a BatchSize 1 run, where no twin ever shares
// a batch with its representative.
func TestSweepTwinsOfFailedRepresentativeInBatch(t *testing.T) {
	base := zeroWindInputs(t)
	space := testSpace(base)
	strategy := explorer.RenewablesBatteryCAS
	designs := space.Enumerate(strategy, base.AvgDemandMW())
	twins := base.Twins(designs)
	const failed = 3
	dir := t.TempDir()

	run := func(name string, batch int) (Result, map[int]int, string) {
		in := *base
		var mu sync.Mutex
		calls := map[int]int{}
		index := map[explorer.Design]int{}
		for i, d := range designs {
			index[d] = i
		}
		in.EvalHook = func(d explorer.Design) error {
			mu.Lock()
			defer mu.Unlock()
			calls[index[d]]++
			if index[d] == failed {
				return errors.New("injected permanent failure")
			}
			return nil
		}
		path := filepath.Join(dir, name)
		res, err := Run(context.Background(), &in, space, strategy,
			Options{BatchSize: batch, RetryBackoff: -1, Checkpoint: CheckpointOptions{Path: path}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res, calls, path
	}
	got, calls, gotPath := run("default.json", 0)
	want, _, wantPath := run("batch1.json", 1)

	if len(got.Report.Failures) != 1 || got.Report.Failures[0].Design != designs[failed] {
		t.Fatalf("failures %+v, want only design %d", got.Report.Failures, failed)
	}
	want.Report.MaxResident = got.Report.MaxResident
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("report %+v, BatchSize 1 report %+v", got.Report, want.Report)
	}
	var inBatch []int
	for i, r := range twins {
		if r == failed && i != failed {
			if calls[i] != 1 {
				t.Fatalf("EvalHook ran %d times for twin %d of the failed representative, want 1", calls[i], i)
			}
			if i < 64 {
				inBatch = append(inBatch, i)
			}
		}
	}
	if len(inBatch) != 3 || calls[failed] != 2 {
		t.Fatalf("%d in-batch twins and %d hook calls for the representative; want 3 and 2 (first pass and retry)",
			len(inBatch), calls[failed])
	}
	for i, s := range checkpointStatus(t, gotPath) {
		if want := byte(statusDone); i == failed {
			if s != statusFailedPerm {
				t.Fatalf("representative status %q, want %q", s, statusFailedPerm)
			}
		} else if s != want {
			t.Fatalf("design %d status %q, want %q", i, s, want)
		}
	}
	assertSameFileBytes(t, gotPath, wantPath)
}

// TestSweepTwinsCancelledInBatchStayPending cancels a default-batch
// zero-wind sweep inside its first batch: every design the cancellation
// never reached stays pending — in that batch a skipped representative and
// its twins, and the whole unstarted second batch — a twin in the first
// batch is done exactly when its representative is, and the resumed sweep
// converges to the uninterrupted bytes.
func TestSweepTwinsCancelledInBatchStayPending(t *testing.T) {
	in := zeroWindInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	designs := space.Enumerate(strategy, in.AvgDemandMW())
	twins := in.Twins(designs)
	dir := t.TempDir()
	cleanPath := filepath.Join(dir, "clean.json")
	chaosPath := filepath.Join(dir, "chaos.json")
	if _, err := Run(context.Background(), in, space, strategy,
		Options{Checkpoint: CheckpointOptions{Path: cleanPath}}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	in.EvalHook = func(explorer.Design) error {
		if n.Add(1) == 7 {
			cancel()
		}
		return nil
	}
	partial, err := Run(ctx, in, space, strategy, Options{Checkpoint: CheckpointOptions{Path: chaosPath}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	status := checkpointStatus(t, chaosPath)
	pending := 0
	for i, s := range status {
		if s != statusDone && s != statusPending {
			t.Fatalf("design %d status %q after a fault-free cancellation", i, s)
		}
		if s == statusPending {
			pending++
		}
		switch r := twins[i]; {
		case i >= 64:
			if s != statusPending {
				t.Fatalf("design %d of the unstarted second batch has status %q", i, s)
			}
		case s != status[r]:
			t.Fatalf("design %d status %q, its representative %d status %q", i, s, r, status[r])
		}
	}
	if pending == 0 || pending != partial.Report.Skipped || partial.Report.Evaluated+pending != len(designs) {
		t.Fatalf("%d pending designs after report %+v", pending, partial.Report)
	}

	calls := countEvals(in)
	if _, err := Run(context.Background(), in, space, strategy,
		Options{Checkpoint: CheckpointOptions{Path: chaosPath, Resume: true}}); err != nil {
		t.Fatal(err)
	}
	if total := calls.Load() + n.Load(); total != 20 {
		t.Fatalf("killed and resumed runs simulated %d designs, want the 20 wind-free ones", total)
	}
	assertSameFileBytes(t, cleanPath, chaosPath)
}
