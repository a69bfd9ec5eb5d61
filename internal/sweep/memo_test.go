package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/grid"
)

// ncInputs builds NC's 8,760-hour inputs, whose wind shape never generates.
func ncInputs(t *testing.T) *explorer.Inputs {
	t.Helper()
	in, err := explorer.NewInputs(grid.MustSite("NC"))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSweepTwinsAcrossShardsShareOneJob: NC's twins sit 210 designs apart,
// farther than a 16-way shard slice is long. Run in order through one Job,
// the shards share its year memo and simulate 210 of NC's 1,470 designs, and
// the memo ends with one entry per distinct year; run through a fresh Job
// each, they simulate all 1,470. Every shard checkpoint is byte-identical
// between the two, since a memo hit folds at the design's own place.
func TestSweepTwinsAcrossShardsShareOneJob(t *testing.T) {
	in := ncInputs(t)
	calls := countEvals(in)
	space := explorer.DefaultSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := t.TempDir()
	const shards = 16
	run := func(job *Job, name string, i int) string {
		t.Helper()
		path := filepath.Join(dir, fmt.Sprintf("%s-%02d.json", name, i))
		if _, err := job.Run(context.Background(), in, Options{
			Plan:       Plan{Shard: Shard{Index: i, Count: shards}},
			Checkpoint: CheckpointOptions{Path: path},
		}); err != nil {
			t.Fatalf("%s shard %d/%d: %v", name, i, shards, err)
		}
		return path
	}

	shared, err := NewJob(in, space, strategy)
	if err != nil {
		t.Fatal(err)
	}
	var sharedPaths []string
	for i := 1; i <= shards; i++ {
		sharedPaths = append(sharedPaths, run(shared, "shared", i))
	}
	if n := calls.Swap(0); len(shared.Designs) != 1470 || n != 210 {
		t.Fatalf("shards of one Job simulated %d of %d designs, want 210 of 1470", n, len(shared.Designs))
	}
	if n := len(shared.memo.years); n != 210 {
		t.Fatalf("memo holds %d years after the sweep, want 210", n)
	}

	for i := 1; i <= shards; i++ {
		fresh, err := NewJob(in, space, strategy)
		if err != nil {
			t.Fatal(err)
		}
		assertSameFileBytes(t, sharedPaths[i-1], run(fresh, "fresh", i))
	}
	if n := calls.Load(); n != 1470 {
		t.Fatalf("shards of fresh Jobs simulated %d designs, want all 1470", n)
	}
}

// TestAdaptiveTwinsAcrossRoundsNC: at the plan of perfbench's adaptive
// workload, NC's three rounds list 6,195 designs that simulate 691 distinct
// years. One memo spans the rounds, so each year is simulated once, and every
// frontier point still equals Inputs.Evaluate on its design, bit for bit.
func TestAdaptiveTwinsAcrossRoundsNC(t *testing.T) {
	in := ncInputs(t)
	calls := countEvals(in)
	plan := Plan{Mode: ModeAdaptive, CoarsePointsPerDim: 3, MaxRounds: 2, Tolerance: 0.01}
	res, err := Run(context.Background(), in, explorer.DefaultSpace(in), explorer.RenewablesBatteryCAS, Options{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 691 || res.Report.Evaluated != 6195 {
		t.Fatalf("adaptive NC simulated %d of %d designs, want 691 of 6195", n, res.Report.Evaluated)
	}
	in.EvalHook = nil
	for _, o := range res.Frontier {
		want, err := in.Evaluate(o.Design)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range [][2]float64{
			{float64(o.Operational), float64(want.Operational)},
			{float64(o.Embodied), float64(want.Embodied)},
			{o.CoveragePct, want.CoveragePct},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("frontier point %+v: %v, Inputs.Evaluate gives %v", o.Design, f[0], f[1])
			}
		}
	}
}

// TestSweepTwinsRetryPassSkipsMemo: a twin that failed its first pass is
// re-evaluated, and hooked, by the retry pass even though the memo holds its
// year by then. The hook fails the twin's first call and, in that call,
// stores its representative's year in the Job's memo.
func TestSweepTwinsRetryPassSkipsMemo(t *testing.T) {
	in := zeroWindInputs(t)
	job, err := NewJob(in, testSpace(in), explorer.RenewablesBatteryCAS)
	if err != nil {
		t.Fatal(err)
	}
	const twin = 25 // twin of design 5, in the second of five shards
	if r := job.twins[twin]; r != 5 {
		t.Fatalf("design %d is a twin of %d, want 5", twin, r)
	}
	rep, err := in.Evaluate(job.Designs[5])
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	in.EvalHook = func(d explorer.Design) error {
		if d != job.Designs[twin] {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if calls++; calls == 1 {
			job.memo.put(rep)
			return errors.New("injected transient failure")
		}
		return nil
	}
	res, err := job.Run(context.Background(), in, Options{
		RetryBackoff: -1,
		Plan:         Plan{Shard: Shard{Index: 2, Count: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := job.memo.get(job.Designs[twin]); !ok {
		t.Fatal("the memo lost the representative's year")
	}
	if calls != 2 || res.Report.Retried != 1 || res.Report.Recovered != 1 || len(res.Report.Failures) != 0 {
		t.Fatalf("twin hooked %d times, report %+v; want 2 hook calls and one recovered retry", calls, res.Report)
	}
}
