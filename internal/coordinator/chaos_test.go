package coordinator

// Chaos tests for the work-stealing coordinator: killed workers, stalled
// heartbeats, racing duplicate owners, and transient evaluation faults must
// all converge to the byte-identical optimum and Pareto frontier of an
// uninterrupted single-process sweep — the acceptance criterion the
// determinism design promises.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/faultinject"
	"carbonexplorer/internal/sweep"
)

// chaosTiming keeps liveness windows short so theft happens in
// milliseconds instead of the production-default tens of seconds.
func chaosTiming(o Options) Options {
	o.Heartbeat = 10 * time.Millisecond
	o.Expiry = 40 * time.Millisecond
	return o
}

// TestChaosKilledWorkerLeaseStolen is the acceptance scenario: a worker
// dies mid-lease (simulated by an interrupted sweep that left a running
// lease file with a stale heartbeat and a partial per-lease checkpoint).
// The coordinator must steal the lease, resume — not re-evaluate — the
// dead worker's completed designs, and converge to the exact
// single-process optimum and frontier.
func TestChaosKilledWorkerLeaseStolen(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)
	n := len(space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW()))

	dir := t.TempDir()
	const leases = 10
	plans, err := sweep.PlanShards(n, leases)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	b, err := newBoard(dir, plans, 10*time.Millisecond, 40*time.Millisecond)
	if err != nil {
		t.Fatalf("newBoard: %v", err)
	}

	// The ghost worker: claim lease 0, evaluate part of it (checkpointing
	// every design), then die — the crash-loop idiom from the sweep chaos
	// tests, cancelling from inside the EvalHook.
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	ghostEvals := 0
	ghost := *in
	ghost.EvalHook = func(explorer.Design) error {
		mu.Lock()
		defer mu.Unlock()
		ghostEvals++
		if ghostEvals == 4 {
			cancel()
		}
		return nil
	}
	partial, err := sweep.Run(ctx, &ghost, space, explorer.RenewablesBatteryCAS, sweep.Options{
		BatchSize:  1,
		Plan:       sweep.Plan{Shard: plans[0].Shard},
		Checkpoint: sweep.CheckpointOptions{Path: b.checkpointPath(0), Every: 1},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ghost run: want context.Canceled, got %v", err)
	}
	ghostDone := partial.Report.Evaluated
	if ghostDone == 0 || ghostDone >= plans[0].Size() {
		t.Fatalf("ghost completed %d of %d designs — need a strict partial lease", ghostDone, plans[0].Size())
	}
	// The kill left the lease claimed, running, and (by now) expired.
	if err := b.write(0, leaseFile{Owner: "ghost/w0", State: leaseRunning, HeartbeatMS: 1}); err != nil {
		t.Fatalf("writing ghost lease: %v", err)
	}

	// The surviving fleet coordinates over the same directory and must
	// steal the ghost's lease. Count fresh evaluations to prove the
	// ghost's completed designs were restored, not redone.
	var evals sync.Map
	hooked := *in
	hooked.EvalHook = func(d explorer.Design) error {
		c, _ := evals.LoadOrStore(d, new(int))
		mu.Lock()
		*(c.(*int))++
		mu.Unlock()
		return nil
	}
	got, err := Run(context.Background(), &hooked, space, explorer.RenewablesBatteryCAS,
		chaosTiming(Options{Workers: 3, Leases: leases, BatchSize: 2, LeaseDir: dir, Worker: "fleet"}))
	if err != nil {
		t.Fatalf("coordinated run: %v", err)
	}
	requireSameResult(t, want, got)

	stolen, fresh := 0, 0
	for _, wp := range got.Workers {
		stolen += wp.Stolen
		fresh += wp.Evaluated
	}
	if stolen == 0 {
		t.Fatal("no worker stole the ghost's expired lease")
	}
	if fresh != n-ghostDone {
		t.Fatalf("fleet evaluated %d designs fresh, want %d (= %d total − %d restored from the ghost's checkpoint)",
			fresh, n-ghostDone, n, ghostDone)
	}
	total := 0
	evals.Range(func(_, c any) bool {
		mu.Lock()
		total += *(c.(*int))
		mu.Unlock()
		return true
	})
	if total != fresh {
		t.Fatalf("per-design evaluation count %d disagrees with worker progress %d — some design was evaluated twice", total, fresh)
	}
	if !got.Resumed || got.Report.Restored != ghostDone {
		t.Fatalf("result restored %d designs (resumed=%v), want %d from the ghost", got.Report.Restored, got.Resumed, ghostDone)
	}
}

// TestChaosStalledHeartbeat: a lease whose owner stopped heartbeating — but
// never wrote a checkpoint — is stolen and evaluated from scratch, and a
// lease recorded by a corrupt claim file is likewise reclaimed rather than
// wedging the sweep.
func TestChaosStalledHeartbeat(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)
	n := len(space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW()))

	dir := t.TempDir()
	const leases = 8
	plans, err := sweep.PlanShards(n, leases)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	b, err := newBoard(dir, plans, 10*time.Millisecond, 40*time.Millisecond)
	if err != nil {
		t.Fatalf("newBoard: %v", err)
	}
	// Lease 2: claimed long ago, heartbeat never refreshed, no progress.
	if err := b.write(2, leaseFile{Owner: "wedged/w0", State: leaseRunning, HeartbeatMS: 1}); err != nil {
		t.Fatalf("writing stalled lease: %v", err)
	}
	// Lease 5: a torn or garbage claim file.
	if err := sweep.WriteFileAtomic(b.leasePath(5), []byte("{не json")); err != nil {
		t.Fatalf("writing corrupt lease: %v", err)
	}

	got, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		chaosTiming(Options{Workers: 2, Leases: leases, BatchSize: 4, LeaseDir: dir, Worker: "fleet"}))
	if err != nil {
		t.Fatalf("coordinated run: %v", err)
	}
	requireSameResult(t, want, got)
	stolen := 0
	for _, wp := range got.Workers {
		stolen += wp.Stolen
	}
	if stolen < 2 {
		t.Fatalf("want both the stalled and the corrupt lease stolen, got %d thefts", stolen)
	}
}

// TestChaosDuplicateOwnerBenign: the claim race the design document calls
// benign, exercised for real — a stalled owner wakes up and keeps sweeping
// its lease while the coordinator's thief is already re-running it. Both
// write the same per-lease checkpoint path concurrently (atomic,
// sequence-qualified temp files make the racing saves safe) and the merged
// result is still byte-identical to the single-process sweep.
func TestChaosDuplicateOwnerBenign(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)
	n := len(space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW()))

	dir := t.TempDir()
	const leases = 6
	plans, err := sweep.PlanShards(n, leases)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	b, err := newBoard(dir, plans, 10*time.Millisecond, 40*time.Millisecond)
	if err != nil {
		t.Fatalf("newBoard: %v", err)
	}
	if err := b.write(0, leaseFile{Owner: "stalled/w0", State: leaseRunning, HeartbeatMS: 1}); err != nil {
		t.Fatalf("writing stalled lease: %v", err)
	}

	// The stalled owner wakes up mid-theft and finishes its lease anyway,
	// racing the coordinator on the same checkpoint file.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{
			BatchSize:  2,
			Plan:       sweep.Plan{Shard: plans[0].Shard},
			Checkpoint: sweep.CheckpointOptions{Path: b.checkpointPath(0), Every: 1, Resume: true},
		})
		if err != nil {
			t.Errorf("woken owner's sweep: %v", err)
		}
	}()

	got, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		chaosTiming(Options{Workers: 2, Leases: leases, BatchSize: 2, LeaseDir: dir, Worker: "fleet"}))
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinated run: %v", err)
	}
	requireSameResult(t, want, got)
}

// TestChaosTransientFaults: injected first-attempt failures across a
// coordinated lease-directory run are retried within their leases and the
// fleet still converges to the clean single-process result.
func TestChaosTransientFaults(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)

	hooked := *in
	hooked.EvalHook = faultinject.TransientFaults(77, 0.15)
	got, err := Run(context.Background(), &hooked, space, explorer.RenewablesBatteryCAS,
		chaosTiming(Options{Workers: 3, Leases: 9, BatchSize: 4, LeaseDir: t.TempDir(), Worker: "fleet"}))
	if err != nil {
		t.Fatalf("coordinated run with transient faults: %v", err)
	}
	if got.Report.Retried == 0 || got.Report.Recovered == 0 {
		t.Fatalf("no retries recorded — injection did not fire: %+v", got.Report)
	}
	if len(got.Report.Failures) != 0 {
		t.Fatalf("transient faults left %d permanent failures", len(got.Report.Failures))
	}
	requireSameResult(t, want, got)
}

// slowWorkerInputs builds the heterogeneous-fleet fixture: every worker
// evaluates with a fixed per-design delay, and worker `slow` is 4× slower.
func slowWorkerInputs(in *explorer.Inputs, slow int, delay time.Duration) func(int) *explorer.Inputs {
	return func(w int) *explorer.Inputs {
		d := delay
		if w == slow {
			d = 4 * delay
		}
		hooked := *in
		hooked.EvalHook = func(explorer.Design) error {
			time.Sleep(d)
			return nil
		}
		return &hooked
	}
}

// coordinatedWallClock times one in-process coordinated sweep with the
// given lease count over a fleet whose last worker is slowed 4×.
func coordinatedWallClock(t testing.TB, in *explorer.Inputs, space explorer.Space, workers, leases int, delay time.Duration) (time.Duration, sweep.Result) {
	start := time.Now()
	res, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, Options{
		Workers:   workers,
		Leases:    leases,
		BatchSize: 1, // serialize each worker: one design at a time, as on a one-core machine
		InputsFor: slowWorkerInputs(in, workers-1, delay),
	})
	if err != nil {
		t.Fatalf("coordinated run: %v", err)
	}
	return time.Since(start), res
}

// TestDynamicBeatsStaticUnderSlowWorker is the scheduling acceptance
// criterion: with one of three workers slowed 4×, dynamic leasing (many
// small leases, stealing) must beat the static i/N partition (leases ==
// workers, exactly the `-shard i/N` split) on wall-clock, because fast
// workers absorb the slow worker's backlog instead of idling.
func TestDynamicBeatsStaticUnderSlowWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short mode")
	}
	in := testInputs(t)
	space := testSpace(in)
	want := singleProcess(t, in, space)
	const workers = 3
	const delay = 2 * time.Millisecond

	static, resStatic := coordinatedWallClock(t, in, space, workers, workers, delay)
	dynamic, resDynamic := coordinatedWallClock(t, in, space, workers, 8*workers, delay)
	requireSameResult(t, want, resStatic)
	requireSameResult(t, want, resDynamic)

	t.Logf("static %d-lease partition: %v; dynamic %d-lease stealing: %v (%.2fx)",
		workers, static, 8*workers, dynamic, float64(static)/float64(dynamic))
	if dynamic >= static {
		t.Fatalf("dynamic leasing (%v) did not beat the static partition (%v) with a 4x-slow worker", dynamic, static)
	}
}

// BenchmarkDynamicVsStaticSlowWorker reports the same comparison as
// benchmark output: run with `go test -bench DynamicVsStatic -run ^$`.
func BenchmarkDynamicVsStaticSlowWorker(b *testing.B) {
	in := testInputs(b)
	space := testSpace(in)
	const workers = 3
	const delay = time.Millisecond
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coordinatedWallClock(b, in, space, workers, workers, delay)
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coordinatedWallClock(b, in, space, workers, 8*workers, delay)
		}
	})
}
