package coordinator

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/sweep"
)

// adaptivePlan mirrors the sweep package's adaptive test plan: coarse
// 3-point lattice, two subdivision rounds, 5% tolerance.
func adaptivePlan() sweep.Plan {
	return sweep.Plan{Mode: sweep.ModeAdaptive, Tolerance: 0.05, MaxRounds: 2, CoarsePointsPerDim: 3}
}

func readFileBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// TestAdaptiveTopologiesByteIdentical is the cross-topology acceptance test:
// the converged final checkpoint of an adaptive refinement must be
// byte-identical whether the rounds ran in a single process, under the
// in-memory coordinator, across a file-lease fleet, or across a
// network-lease fleet — also on the zero-wind fixture, where most designs
// are twins and the topologies reuse different ones.
func TestAdaptiveTopologiesByteIdentical(t *testing.T) {
	for _, f := range []struct {
		name   string
		inputs func(testing.TB) *explorer.Inputs
	}{{"generating", testInputs}, {"zero-wind", zeroWindInputs}} {
		t.Run(f.name, func(t *testing.T) { testAdaptiveTopologiesByteIdentical(t, f.inputs(t)) })
	}
}

func testAdaptiveTopologiesByteIdentical(t *testing.T, in *explorer.Inputs) {
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()

	soloPath := filepath.Join(dir, "solo.json")
	solo, err := sweep.Run(context.Background(), in, space, strategy,
		sweep.Options{Plan: adaptivePlan(), Checkpoint: sweep.CheckpointOptions{Path: soloPath, Every: 10}})
	if err != nil {
		t.Fatalf("single-process adaptive run: %v", err)
	}
	if !solo.Adaptive.Converged {
		t.Fatal("single-process adaptive run did not converge")
	}
	want := readFileBytes(t, soloPath)

	memPath := filepath.Join(dir, "memory.json")
	mem, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Workers: 3, Checkpoint: memPath})
	if err != nil {
		t.Fatalf("in-memory coordinated adaptive run: %v", err)
	}
	requireSameResult(t, solo, mem)
	if got := readFileBytes(t, memPath); string(got) != string(want) {
		t.Fatalf("in-memory coordinator checkpoint differs from single-process:\n%s\nvs\n%s", got, want)
	}

	leaseDir := filepath.Join(dir, "leases")
	fileRes, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Workers: 3, LeaseDir: leaseDir})
	if err != nil {
		t.Fatalf("file-lease coordinated adaptive run: %v", err)
	}
	requireSameResult(t, solo, fileRes)
	if got := readFileBytes(t, MergedCheckpointPath(leaseDir)); string(got) != string(want) {
		t.Fatalf("file-lease coordinator checkpoint differs from single-process:\n%s\nvs\n%s", got, want)
	}

	netPath := filepath.Join(dir, "network.json")
	endpoint := startCoordinator(t, filepath.Join(dir, "state"), 0)
	netRes, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Workers: 3, Endpoint: endpoint, Checkpoint: netPath})
	if err != nil {
		t.Fatalf("network-lease coordinated adaptive run: %v", err)
	}
	requireSameResult(t, solo, netRes)
	if got := readFileBytes(t, netPath); string(got) != string(want) {
		t.Fatalf("network-lease coordinator checkpoint differs from single-process:\n%s\nvs\n%s", got, want)
	}
}

// TestAdaptiveLeaseDirResume kills a file-lease adaptive fleet mid-round and
// re-invokes it over the same directory: the resumed fleet must converge to
// the single-process result byte-identically, restoring completed rounds
// from their round directories instead of re-evaluating everything.
func TestAdaptiveLeaseDirResume(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()

	soloPath := filepath.Join(dir, "solo.json")
	if _, err := sweep.Run(context.Background(), in, space, strategy,
		sweep.Options{Plan: adaptivePlan(), Checkpoint: sweep.CheckpointOptions{Path: soloPath, Every: 10}}); err != nil {
		t.Fatalf("single-process adaptive run: %v", err)
	}

	// Cancel partway into round 1 (the coarse round has 81 designs).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	started := 0
	hooked := *in
	hooked.EvalHook = func(explorer.Design) error {
		mu.Lock()
		started++
		if started == 95 {
			cancel()
		}
		mu.Unlock()
		return nil
	}
	leaseDir := filepath.Join(dir, "leases")
	_, err := Run(ctx, &hooked, space, strategy,
		Options{Plan: adaptivePlan(), Workers: 2, LeaseDir: leaseDir, CheckpointEvery: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted fleet: want context.Canceled, got %v", err)
	}

	resumed, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Workers: 2, LeaseDir: leaseDir, CheckpointEvery: 5})
	if err != nil {
		t.Fatalf("re-invoked fleet: %v", err)
	}
	if !resumed.Adaptive.Converged {
		t.Fatal("re-invoked fleet did not converge")
	}
	want := readFileBytes(t, soloPath)
	if got := readFileBytes(t, MergedCheckpointPath(leaseDir)); string(got) != string(want) {
		t.Fatalf("resumed fleet checkpoint differs from single-process:\n%s\nvs\n%s", got, want)
	}
}

// TestAdaptiveNetworkLaggingFleetReplaysArchive: after one fleet finishes an
// adaptive refinement, a second fleet pointed at the same coordinator must
// replay every archived round from the coordinator's generation archive and
// converge without evaluating a single design.
func TestAdaptiveNetworkLaggingFleetReplaysArchive(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()
	endpoint := startCoordinator(t, filepath.Join(dir, "state"), 0)

	firstPath := filepath.Join(dir, "first.json")
	first, err := Run(context.Background(), in, space, strategy,
		Options{Plan: adaptivePlan(), Workers: 3, Endpoint: endpoint, Checkpoint: firstPath})
	if err != nil {
		t.Fatalf("first fleet: %v", err)
	}
	if !first.Adaptive.Converged {
		t.Fatal("first fleet did not converge")
	}

	hooked, counted := evalCounter(in)
	secondPath := filepath.Join(dir, "second.json")
	second, err := Run(context.Background(), hooked, space, strategy,
		Options{Plan: adaptivePlan(), Workers: 3, Endpoint: endpoint, Checkpoint: secondPath, Worker: "late"})
	if err != nil {
		t.Fatalf("second fleet: %v", err)
	}
	if total, _ := counted(); total != 0 {
		t.Fatalf("second fleet evaluated %d designs; want 0 (pure archive replay)", total)
	}
	if !second.Adaptive.Converged {
		t.Fatal("second fleet did not converge")
	}
	requireSameResult(t, first, second)
	if got, want := readFileBytes(t, secondPath), readFileBytes(t, firstPath); string(got) != string(want) {
		t.Fatalf("second fleet checkpoint differs from first:\n%s\nvs\n%s", got, want)
	}
}

// TestCoordinatorRejectsBadPlans: plan validation happens before any board
// or network state is touched.
func TestCoordinatorRejectsBadPlans(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS

	_, err := Run(context.Background(), in, space, strategy,
		Options{Plan: sweep.Plan{Tolerance: 0.1}})
	if err == nil || !strings.Contains(err.Error(), "require ModeAdaptive") {
		t.Fatalf("adaptive knob under exhaustive plan: want validation error, got %v", err)
	}
	_, err = Run(context.Background(), in, space, strategy,
		Options{Plan: sweep.Plan{Shard: sweep.Shard{Index: 1, Count: 2}}})
	if err == nil || !strings.Contains(err.Error(), "incompatible with coordinated sweeps") {
		t.Fatalf("plan shard under coordinator: want rejection, got %v", err)
	}
}
