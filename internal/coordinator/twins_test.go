package coordinator

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/sweep"
)

// ncInputs builds NC's 8,760-hour inputs, whose wind shape never generates:
// DefaultSpace's 1,470 designs simulate 210 distinct years, and each twin
// sits 210 designs after its representative, farther than any of 16 leases
// is long.
func ncInputs(t *testing.T) *explorer.Inputs {
	t.Helper()
	in, err := explorer.NewInputs(grid.MustSite("NC"))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// countingHook installs an EvalHook on in that counts its calls.
func countingHook(in *explorer.Inputs) *atomic.Int64 {
	var n atomic.Int64
	in.EvalHook = func(explorer.Design) error {
		n.Add(1)
		return nil
	}
	return &n
}

// TestCoordinatedTwinsAcrossLeasesNC: the leases of one coordinated job
// share its year memo, so 16 leases over NC simulate each of its 210 distinct
// years once, and the Result equals sweep.Run's apart from Workers.
func TestCoordinatedTwinsAcrossLeasesNC(t *testing.T) {
	in := ncInputs(t)
	space := explorer.DefaultSpace(in)
	want := singleProcess(t, in, space)
	calls := countingHook(in)
	got, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, Options{Workers: 1, Leases: 16})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 210 {
		t.Fatalf("16 leases simulated %d designs, want the 210 distinct years", n)
	}
	got.Workers = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("coordinated result differs from sweep.Run's:\n got %+v\nwant %+v", got.Report, want.Report)
	}
}

// TestNetworkTwinsMergedMatchesSolo: two network-coordinated workers share
// the memo across their leases, and the coordinator's merged checkpoint is
// byte-identical to a single-process sweep's.
func TestNetworkTwinsMergedMatchesSolo(t *testing.T) {
	in := ncInputs(t)
	space := explorer.DefaultSpace(in)
	dir := t.TempDir()
	soloPath := filepath.Join(dir, "solo.json")
	if _, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		sweep.Options{Checkpoint: sweep.CheckpointOptions{Path: soloPath}}); err != nil {
		t.Fatal(err)
	}
	calls := countingHook(in)
	url := startCoordinator(t, t.TempDir(), 200*time.Millisecond)
	mergedPath := filepath.Join(dir, "merged.json")
	if _, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		netTiming(Options{Workers: 2, Leases: 16, Endpoint: url, Checkpoint: mergedPath})); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n >= 1470 {
		t.Fatalf("the fleet simulated %d designs; the memo saved nothing", n)
	}
	if a, b := readFileBytes(t, soloPath), readFileBytes(t, mergedPath); string(a) != string(b) {
		t.Fatalf("merged checkpoint differs from the solo one:\n%s\n%s", a, b)
	}
}

// TestCoordinatedTwinsOfFailedRepresentative: a representative that fails
// permanently never enters the memo, so each of its twins in other leases is
// hooked, and evaluated, on its own; every other twin takes its year from
// the memo.
func TestCoordinatedTwinsOfFailedRepresentative(t *testing.T) {
	base := zeroWindInputs(t)
	space := testSpace(base)
	designs := space.Enumerate(explorer.RenewablesBatteryCAS, base.AvgDemandMW())
	twins := base.Twins(designs)
	const failed = 3
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
	// One worker claims the leases in order, so every representative but
	// the failed one is in the memo before the first twin is reached.
	res, err := Run(context.Background(), &in, space, explorer.RenewablesBatteryCAS, Options{Workers: 1, Leases: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Failures) != 1 || res.Report.Failures[0].Design != designs[failed] || res.Report.Evaluated != len(designs)-1 {
		t.Fatalf("report %+v, want design %d alone failed", res.Report, failed)
	}
	for i, r := range twins {
		want := 0
		switch {
		case i == failed:
			want = 2 // first pass and retry
		case r == failed || r == i:
			want = 1
		}
		if calls[i] != want {
			t.Fatalf("EvalHook ran %d times for design %d (twin of %d), want %d", calls[i], i, r, want)
		}
	}
}

// TestCoordinatedTwinsInputsForShareNothing: workers that InputsFor gives
// their own inputs take nothing from the memo, so the fleet simulates every
// one of NC's 1,470 designs, as leases did before the memo, with the same
// Result.
func TestCoordinatedTwinsInputsForShareNothing(t *testing.T) {
	in := ncInputs(t)
	space := explorer.DefaultSpace(in)
	want := singleProcess(t, in, space)
	var calls atomic.Int64
	got, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, Options{
		Workers: 2,
		Leases:  16,
		InputsFor: func(int) *explorer.Inputs {
			own := *in
			own.EvalHook = func(explorer.Design) error {
				calls.Add(1)
				return nil
			}
			return &own
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1470 {
		t.Fatalf("InputsFor workers simulated %d designs, want all 1470", n)
	}
	requireSameResult(t, want, got)
}
