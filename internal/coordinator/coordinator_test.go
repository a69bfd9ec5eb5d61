package coordinator

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/sweep"
	"carbonexplorer/internal/timeseries"
)

// testInputs builds a small (10-day) but fully functional evaluation input,
// mirroring the sweep and faultinject test fixtures.
func testInputs(t testing.TB) *explorer.Inputs {
	t.Helper()
	const n = 240
	demand := timeseries.Generate(n, func(h int) float64 { return 10 + 2*math.Sin(float64(h%24)/24*2*math.Pi) })
	wind := timeseries.Generate(n, func(h int) float64 { return 5 + 4*math.Sin(float64(h)/17) })
	solar := timeseries.Generate(n, func(h int) float64 { return math.Max(0, 8*math.Sin((float64(h%24)-6)/12*math.Pi)) })
	ci := timeseries.Constant(n, 400)
	in, err := explorer.NewInputsFromSeries(grid.MustSite("UT"), demand, wind, solar, ci, carbon.DefaultEmbodiedParams())
	if err != nil {
		t.Fatalf("testInputs: %v", err)
	}
	return in
}

// zeroWindInputs is testInputs with a wind shape that never generates: every
// wind investment is a twin of the wind-free design (explorer.Inputs.Twins).
func zeroWindInputs(t testing.TB) *explorer.Inputs {
	t.Helper()
	in := testInputs(t)
	out, err := explorer.NewInputsFromSeries(in.Site, in.Demand, timeseries.Constant(in.Demand.Len(), 0),
		in.SolarShape, in.GridCI, in.Embodied)
	if err != nil {
		t.Fatalf("zeroWindInputs: %v", err)
	}
	return out
}

// testSpace is a 100-design grid — enough designs for many leases.
func testSpace(in *explorer.Inputs) explorer.Space {
	avg := in.AvgDemandMW()
	return explorer.Space{
		WindMW:             []float64{0, avg, 2 * avg, 4 * avg, 8 * avg},
		SolarMW:            []float64{0, avg, 2 * avg, 4 * avg, 8 * avg},
		BatteryHours:       []float64{0, 2},
		ExtraCapacityFracs: []float64{0, 0.25},
		DoD:                1.0,
		FlexibleRatio:      0.4,
	}
}

func sameOutcome(a, b explorer.Outcome) bool {
	return a.Design == b.Design && a.Operational == b.Operational && a.Embodied == b.Embodied
}

// requireSameResult asserts the coordinated result reproduces the
// single-process optimum and frontier byte-identically.
func requireSameResult(t *testing.T, want, got sweep.Result) {
	t.Helper()
	if got.Report.Evaluated != want.Report.Evaluated {
		t.Fatalf("evaluated %d designs, single-process evaluated %d", got.Report.Evaluated, want.Report.Evaluated)
	}
	if !sameOutcome(got.Optimal, want.Optimal) {
		t.Fatalf("optimum diverged:\ncoordinated:    %+v\nsingle-process: %+v", got.Optimal.Design, want.Optimal.Design)
	}
	if len(got.Frontier) != len(want.Frontier) {
		t.Fatalf("frontier has %d points, single-process has %d", len(got.Frontier), len(want.Frontier))
	}
	for i := range got.Frontier {
		if !sameOutcome(got.Frontier[i], want.Frontier[i]) {
			t.Fatalf("frontier point %d diverged: %+v vs %+v", i, got.Frontier[i].Design, want.Frontier[i].Design)
		}
	}
}

// singleProcess runs the reference uninterrupted single-process sweep.
func singleProcess(t *testing.T, in *explorer.Inputs, space explorer.Space) sweep.Result {
	t.Helper()
	want, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{})
	if err != nil {
		t.Fatalf("single-process sweep: %v", err)
	}
	return want
}

// TestCoordinatedMatchesSingleProcess: the in-process work-stealing pool
// over many small leases reproduces the single-process result exactly, and
// per-worker progress accounts for every lease and design.
func TestCoordinatedMatchesSingleProcess(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)

	got, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Workers: 4, Leases: 16, BatchSize: 3})
	if err != nil {
		t.Fatalf("coordinated run: %v", err)
	}
	requireSameResult(t, want, got)

	if len(got.Workers) != 4 {
		t.Fatalf("want 4 worker progress entries, got %d", len(got.Workers))
	}
	leases, evaluated := 0, 0
	for _, wp := range got.Workers {
		if wp.Worker == "" {
			t.Fatalf("worker progress entry missing its label: %+v", wp)
		}
		leases += wp.Leases
		evaluated += wp.Evaluated
	}
	if leases != 16 {
		t.Fatalf("workers completed %d leases, want 16", leases)
	}
	if evaluated != want.Report.Evaluated {
		t.Fatalf("workers evaluated %d designs, want %d", evaluated, want.Report.Evaluated)
	}
}

// TestCoordinatedLeaseDirMatchesSingleProcess: lease-directory coordination
// converges to the same result, leaves a complete resumable merged
// checkpoint, and cleans its lease files up after a single-fleet finish.
func TestCoordinatedLeaseDirMatchesSingleProcess(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)

	dir := t.TempDir()
	got, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Workers: 3, Leases: 12, BatchSize: 4, LeaseDir: dir, Worker: "fleet", Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("coordinated run: %v", err)
	}
	requireSameResult(t, want, got)
	if got.Resumed {
		t.Fatal("fresh coordinated run claims to have resumed prior progress")
	}

	merged := filepath.Join(dir, "merged.json")
	if _, err := os.Stat(merged); err != nil {
		t.Fatalf("merged checkpoint missing: %v", err)
	}
	// The merged checkpoint is a plain unsharded checkpoint: a
	// single-process resume accepts it and has nothing left to do.
	res, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		sweep.Options{Checkpoint: sweep.CheckpointOptions{Path: merged, Resume: true}})
	if err != nil {
		t.Fatalf("resuming merged checkpoint: %v", err)
	}
	if res.Report.Restored != want.Report.Evaluated {
		t.Fatalf("merged checkpoint restored %d designs, want %d", res.Report.Restored, want.Report.Evaluated)
	}
	// Every lease was finished by this fleet, so lease files are gone.
	leftovers, err := filepath.Glob(filepath.Join(dir, "lease-*"))
	if err != nil {
		t.Fatalf("globbing lease files: %v", err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("lease files not cleaned up after a complete single-fleet run: %v", leftovers)
	}
}

// TestLeaseGranularity covers the PlanShards interaction at the edges of
// the lease/worker geometry: more leases than designs, a single worker,
// and more workers than leases all converge to the same result.
func TestLeaseGranularity(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)
	designs := len(space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW()))

	cases := []struct {
		name        string
		opts        Options
		wantWorkers int
	}{
		// Leases clamp to the design count: PlanShards never produces
		// empty slices the workers would spin on.
		{"lease count > designs", Options{Workers: 4, Leases: 10 * designs}, 4},
		// One worker drains every lease alone.
		{"1 worker", Options{Workers: 1, Leases: 8}, 1},
		// Workers cap at the lease count: surplus workers would never
		// find a lease to claim.
		{"worker count > lease count", Options{Workers: 64, Leases: 4}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, tc.opts)
			if err != nil {
				t.Fatalf("coordinated run: %v", err)
			}
			requireSameResult(t, want, got)
			if len(got.Workers) != tc.wantWorkers {
				t.Fatalf("got %d worker progress entries, want %d", len(got.Workers), tc.wantWorkers)
			}
		})
	}
}

// TestCoordinatorEmptySpace: an empty enumeration is an error, not a hang.
func TestCoordinatorEmptySpace(t *testing.T) {
	in := testInputs(t)
	_, err := Run(context.Background(), in, explorer.Space{}, explorer.RenewablesBatteryCAS, Options{})
	if err == nil {
		t.Fatal("empty space did not error")
	}
}

// TestCoordinatorCancellation: cancelling a lease-directory run returns the
// context error with a partial fold, and re-invoking converges to the full
// single-process result by resuming the lease checkpoints.
func TestCoordinatorCancellation(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	hooked := *in
	hooked.EvalHook = func(explorer.Design) error {
		if evals.Add(1) == 20 {
			cancel()
		}
		return nil
	}
	opts := Options{
		Workers: 1, Leases: 10, BatchSize: 2, CheckpointEvery: 1,
		LeaseDir: dir, Worker: "first",
		// Short liveness windows so the second invocation steals the
		// first's interrupted lease promptly instead of waiting out the
		// default 10s expiry.
		Heartbeat: 10 * time.Millisecond, Expiry: 50 * time.Millisecond,
	}
	partial, err := Run(ctx, &hooked, space, explorer.RenewablesBatteryCAS, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: want context.Canceled, got %v", err)
	}
	if partial.Report.Evaluated == 0 {
		t.Fatal("cancellation left nothing evaluated — nothing to prove resume with")
	}
	if partial.Report.Evaluated >= want.Report.Evaluated {
		t.Fatal("cancellation fired too late: the sweep completed anyway")
	}

	opts.Worker = "second"
	got, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, opts)
	if err != nil {
		t.Fatalf("re-invoked run: %v", err)
	}
	requireSameResult(t, want, got)
	if !got.Resumed {
		t.Fatal("re-invoked run did not report resuming the first run's progress")
	}
	if got.Report.Restored == 0 {
		t.Fatal("re-invoked run restored nothing — it re-evaluated the first run's work")
	}
}

// TestInProcessCancellationCountsCompletedLeases: an in-process run
// cancelled partway counts only the leases its workers completed, accounts
// for every design as evaluated, failed or skipped — a lease nobody claimed
// is skipped, not out of shard — and its partial optimum and frontier fold
// every evaluated design, including those of the lease cancellation cut
// short.
func TestInProcessCancellationCountsCompletedLeases(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	designs := space.Enumerate(strategy, in.AvgDemandMW())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	evaluated := map[explorer.Design]bool{}
	hooked := *in
	hooked.EvalHook = func(d explorer.Design) error {
		mu.Lock()
		defer mu.Unlock()
		evaluated[d] = true
		if len(evaluated) == 30 {
			cancel()
		}
		return nil
	}
	got, err := Run(ctx, &hooked, space, strategy, Options{Workers: 2, Leases: 10, BatchSize: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: want context.Canceled, got %v", err)
	}
	rep := got.Report
	leases := 0
	for _, wp := range got.Workers {
		leases += wp.Leases
	}
	if done := rep.Evaluated + len(rep.Failures); leases*10 > done {
		t.Fatalf("workers completed %d leases of 10 designs, but only %d designs were evaluated or failed", leases, done)
	}
	if rep.Evaluated+len(rep.Failures)+rep.Skipped != len(designs) || rep.OutOfShard != 0 {
		t.Fatalf("report %+v does not account for all %d designs as evaluated, failed or skipped", rep, len(designs))
	}
	if rep.Evaluated != len(evaluated) {
		t.Fatalf("report counts %d evaluated designs, the hook saw %d", rep.Evaluated, len(evaluated))
	}

	var want sweep.Result
	var frontier explorer.ParetoSet
	ev := in.NewEvaluator()
	ev.DiscardSoCTrace = true
	for _, d := range designs {
		if !evaluated[d] {
			continue
		}
		o, err := ev.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		if want.Report.Evaluated == 0 || explorer.Better(o, want.Optimal) {
			want.Optimal = o
		}
		want.Report.Evaluated++
		frontier.Add(o)
	}
	want.Frontier = frontier.Frontier()
	requireSameResult(t, want, got)
}

// TestCoordinatedSweepEndsWithoutPollTail: a worker whose claim finds every
// remaining lease running on a sibling of the same Run is woken by that
// sibling's completion, not by its next poll. The heartbeat, and with it
// the poll, is a minute against a 20 s deadline, so a worker that sleeps
// out one poll fails the run — over both multi-process transports.
func TestCoordinatedSweepEndsWithoutPollTail(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)
	const beat = time.Minute

	cases := []struct {
		name      string
		transport func(t *testing.T) Options
	}{
		{"file", func(t *testing.T) Options { return Options{LeaseDir: t.TempDir()} }},
		{"network", func(t *testing.T) Options {
			return Options{Endpoint: startCoordinator(t, t.TempDir(), HeartbeatSafetyFactor*beat)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			// Worker 0 must finish its lease while worker 1 still evaluates
			// the other, so that its next claim takes the idle branch: its
			// hook holds it until worker 1 has started, and worker 1 is slow.
			started := make(chan struct{})
			var once sync.Once
			opts := tc.transport(t)
			opts.Workers, opts.Leases, opts.BatchSize = 2, 2, 1
			opts.Heartbeat, opts.Worker = beat, "tail"
			opts.InputsFor = func(w int) *explorer.Inputs {
				hooked := *in
				if w == 0 {
					hooked.EvalHook = func(explorer.Design) error {
						select {
						case <-started:
						case <-ctx.Done():
						}
						return nil
					}
				} else {
					hooked.EvalHook = func(explorer.Design) error {
						once.Do(func() { close(started) })
						time.Sleep(5 * time.Millisecond)
						return nil
					}
				}
				return &hooked
			}

			got, err := Run(ctx, in, space, explorer.RenewablesBatteryCAS, opts)
			if err != nil {
				t.Fatalf("coordinated run: %v", err)
			}
			// A finished sweep restores cleanly even under an expired ctx, so
			// the deadline itself is what shows a worker slept out its poll.
			if ctx.Err() != nil {
				t.Fatalf("coordinated run ended only after its deadline: an idle worker slept out its %v poll", beat)
			}
			requireSameResult(t, want, got)
			if len(got.Workers) != 2 {
				t.Fatalf("got %d worker progress entries, want 2", len(got.Workers))
			}
			for _, wp := range got.Workers {
				if wp.Leases != 1 {
					t.Fatalf("worker %s completed %d leases, want 1 each: %+v", wp.Worker, wp.Leases, got.Workers)
				}
			}
		})
	}
}
