package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/faultinject"
)

// runShard runs one shard of the space to completion and returns its
// checkpoint path.
func runShard(t *testing.T, in *explorer.Inputs, space explorer.Space, dir string, i, n int) string {
	t.Helper()
	ckpt := filepath.Join(dir, fmt.Sprintf("shard%dof%d.json", i, n))
	if _, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{BatchSize: 6, Plan: Plan{Shard: Shard{Index: i, Count: n}}, Checkpoint: CheckpointOptions{Path: ckpt}}); err != nil {
		t.Fatalf("shard %d/%d: %v", i, n, err)
	}
	return ckpt
}

// TestMergeRejectsMismatchedShards: shards of different sweeps (different
// strategy here, hence a different space hash) must never merge.
func TestMergeRejectsMismatchedShards(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	dir := t.TempDir()

	a := filepath.Join(dir, "a.json")
	if _, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Plan: Plan{Shard: Shard{1, 2}}, Checkpoint: CheckpointOptions{Path: a}}); err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.json")
	if _, err := Run(context.Background(), in, space, explorer.RenewablesOnly,
		Options{Plan: Plan{Shard: Shard{2, 2}}, Checkpoint: CheckpointOptions{Path: b}}); err != nil {
		t.Fatal(err)
	}
	_, err := MergeCheckpoints(filepath.Join(dir, "merged.json"), a, b)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("merging shards of different strategies: want ErrCheckpointMismatch, got %v", err)
	}

	if _, err := MergeCheckpoints(filepath.Join(dir, "merged.json")); err == nil {
		t.Fatal("merge of zero files accepted")
	}
	if _, err := MergeCheckpoints(filepath.Join(dir, "merged.json"), filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("merge of a missing file accepted")
	}
}

// TestMergePartialShards: merging a complete shard with a missing one
// yields a resumable checkpoint whose pending designs are exactly the
// missing slice, and resuming it converges to the single-process result.
func TestMergePartialShards(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	dir := t.TempDir()

	clean, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Shards 1 and 3 of 3 finish; shard 2 is lost.
	p1 := runShard(t, in, space, dir, 1, 3)
	p3 := runShard(t, in, space, dir, 3, 3)

	merged := filepath.Join(dir, "merged.json")
	rep, err := MergeCheckpoints(merged, p3, p1) // order must not matter
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if rep.Complete() {
		t.Fatal("merge with a lost shard claims completion")
	}
	plans, err := PlanShards(rep.Total, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pending != plans[1].Size() {
		t.Fatalf("merged pending %d, lost shard holds %d", rep.Pending, plans[1].Size())
	}
	if rep.Done != clean.Report.Evaluated-plans[1].Size() {
		t.Fatalf("merged done %d, want %d", rep.Done, clean.Report.Evaluated-plans[1].Size())
	}

	// Resume the merged checkpoint unsharded: it finishes the lost slice.
	final, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Checkpoint: CheckpointOptions{Path: merged, Resume: true}})
	if err != nil {
		t.Fatalf("resume of partial merge: %v", err)
	}
	if final.Report.Restored != rep.Done {
		t.Fatalf("resume restored %d designs, merge reported %d done", final.Report.Restored, rep.Done)
	}
	if !sameOutcome(final.Optimal, clean.Optimal) {
		t.Fatalf("optimum differs after lost-shard recovery: %+v vs %+v",
			final.Optimal.Design, clean.Optimal.Design)
	}
	if len(final.Frontier) != len(clean.Frontier) {
		t.Fatalf("frontier has %d points after recovery, clean has %d", len(final.Frontier), len(clean.Frontier))
	}
	for i := range clean.Frontier {
		if !sameOutcome(final.Frontier[i], clean.Frontier[i]) {
			t.Fatalf("frontier point %d differs: %+v vs %+v", i, final.Frontier[i].Design, clean.Frontier[i].Design)
		}
	}
}

// TestMergeOverlappingAttempts: two checkpoints of the SAME shard — one
// interrupted mid-batch, one complete (the shard was retried) — must merge
// cleanly, with done beating pending and stale failure records dropped.
func TestMergeOverlappingAttempts(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	dir := t.TempDir()

	clean, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// First attempt of shard 1/2: transient faults everywhere, killed early,
	// leaving failed-once and pending designs behind.
	attempt1 := filepath.Join(dir, "shard1-attempt1.json")
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	evals := 0
	transient := faultinject.TransientFaults(3, 0.5)
	in.EvalHook = func(d explorer.Design) error {
		mu.Lock()
		evals++
		if evals == 8 {
			cancel()
		}
		mu.Unlock()
		return transient(d)
	}
	_, err = Run(ctx, in, space, explorer.RenewablesBatteryCAS,
		Options{BatchSize: 4, Plan: Plan{Shard: Shard{1, 2}}, Checkpoint: CheckpointOptions{Path: attempt1, Every: 2}})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("attempt 1 should die of the injected kill, got %v", err)
	}

	// Second attempt (fresh checkpoint, no faults) completes the shard.
	in.EvalHook = nil
	attempt2 := runShard(t, in, space, dir, 1, 2)
	p2 := runShard(t, in, space, dir, 2, 2)

	merged := filepath.Join(dir, "merged.json")
	rep, err := MergeCheckpoints(merged, attempt1, attempt2, p2)
	if err != nil {
		t.Fatalf("merge with overlapping attempts: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("complete attempts merged into pending work: %+v", rep)
	}
	if rep.FailedOnce != 0 || rep.FailedPerm != 0 {
		t.Fatalf("stale failures from the dead attempt survived the merge: %+v", rep)
	}

	final, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Checkpoint: CheckpointOptions{Path: merged, Resume: true}})
	if err != nil {
		t.Fatalf("resume of merged overlap: %v", err)
	}
	if !sameOutcome(final.Optimal, clean.Optimal) {
		t.Fatalf("optimum differs: %+v vs %+v", final.Optimal.Design, clean.Optimal.Design)
	}
	if len(final.Report.Failures) != 0 {
		t.Fatalf("merged sweep reports failures from the dead attempt: %v", final.Report.Failures)
	}
}

// TestMergeSingleFileIdempotent: merging one complete checkpoint (and
// re-merging the merge) reproduces the same fold state — merge is a
// projection, not a transformation.
func TestMergeSingleFileIdempotent(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	dir := t.TempDir()

	ckpt := filepath.Join(dir, "whole.json")
	clean, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Checkpoint: CheckpointOptions{Path: ckpt}})
	if err != nil {
		t.Fatal(err)
	}

	m1 := filepath.Join(dir, "m1.json")
	rep1, err := MergeCheckpoints(m1, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	m2 := filepath.Join(dir, "m2.json")
	rep2, err := MergeCheckpoints(m2, m1, m1)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Done != rep2.Done || rep1.Total != rep2.Total || !rep1.Complete() || !rep2.Complete() {
		t.Fatalf("re-merge drifted: %+v vs %+v", rep1, rep2)
	}

	final, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Checkpoint: CheckpointOptions{Path: m2, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(final.Optimal, clean.Optimal) {
		t.Fatalf("optimum drifted through double merge: %+v vs %+v", final.Optimal.Design, clean.Optimal.Design)
	}
	if final.Report.Restored != clean.Report.Evaluated {
		t.Fatalf("double merge lost progress: restored %d of %d", final.Report.Restored, clean.Report.Evaluated)
	}
}

// TestProgressWithin: counting statuses inside an arbitrary shard window,
// regardless of the file's own shard label. This is what lets a
// coordinator validate one lease's slice against its merged (unsharded)
// stored checkpoint.
func TestProgressWithin(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	dir := t.TempDir()
	n := len(space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW()))

	// Complete shard 1/4, then merge it alone: the merged file is
	// unsharded, so plain Progress sees 3/4 of the space pending.
	ckpt := runShard(t, in, space, dir, 1, 4)
	merged := filepath.Join(dir, "merged.json")
	if _, err := MergeCheckpoints(merged, ckpt); err != nil {
		t.Fatal(err)
	}

	sh := Shard{Index: 1, Count: 4}
	lo, hi := sh.Bounds(n)
	within, err := ProgressWithin(merged, sh)
	if err != nil {
		t.Fatal(err)
	}
	if within.Pending != 0 || within.Done != hi-lo || within.Start != lo || within.End != hi {
		t.Fatalf("slice 1/4 of the merged file: %+v, want %d done in [%d, %d)", within, hi-lo, lo, hi)
	}
	other, err := ProgressWithin(merged, Shard{Index: 2, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	if other.Done != 0 || other.Pending == 0 {
		t.Fatalf("slice 2/4 should be untouched: %+v", other)
	}

	// A zero shard means the whole file — identical to Progress.
	whole, err := ProgressWithin(merged, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Progress(merged)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Done != plain.Done || whole.Pending != plain.Pending || whole.Done != hi-lo {
		t.Fatalf("zero-shard ProgressWithin %+v disagrees with Progress %+v", whole, plain)
	}

	// The window overrides the file's own label: asking the sharded source
	// checkpoint about a different slice counts that slice's statuses.
	foreign, err := ProgressWithin(ckpt, Shard{Index: 2, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	if foreign.Done != 0 {
		t.Fatalf("slice 2/4 of the shard-1 file reports %d done", foreign.Done)
	}

	if _, err := ProgressWithin(merged, Shard{Index: 9, Count: 4}); err == nil {
		t.Fatal("invalid shard accepted")
	}
}
