package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"carbonexplorer/internal/explorer"
)

func TestParseShard(t *testing.T) {
	valid := []struct {
		spec string
		want Shard
	}{
		{"", Shard{}},
		{"1/1", Shard{1, 1}},
		{"2/3", Shard{2, 3}},
		{"10/10", Shard{10, 10}},
	}
	for _, c := range valid {
		got, err := ParseShard(c.spec)
		if err != nil {
			t.Fatalf("ParseShard(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("ParseShard(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}

	invalid := []string{
		"0/3",   // index below range
		"4/3",   // index above range
		"-1/3",  // negative index
		"1/0",   // zero count
		"1/-2",  // negative count
		"a/3",   // non-numeric index
		"1/b",   // non-numeric count
		"3",     // missing slash
		"1/2/3", // too many parts
		"1.5/3", // non-integer
		" 1/3",  // stray whitespace
	}
	for _, spec := range invalid {
		if _, err := ParseShard(spec); !errors.Is(err, ErrBadShard) {
			t.Fatalf("ParseShard(%q): want ErrBadShard, got %v", spec, err)
		}
	}
}

// TestShardStringRoundTrips: String and ParseShard are inverses for every
// valid shard, including the zero shard's empty label.
func TestShardStringRoundTrips(t *testing.T) {
	for _, s := range []Shard{{}, {1, 1}, {2, 5}, {5, 5}} {
		got, err := ParseShard(s.String())
		if err != nil {
			t.Fatalf("round trip %+v: %v", s, err)
		}
		if got != s {
			t.Fatalf("round trip %+v came back as %+v", s, got)
		}
	}
}

// TestPlanShardsPartitions: for a spread of (n, count) pairs, the planned
// slices must be contiguous, non-overlapping, covering, balanced to within
// one design, and identical across calls — the contract that lets workers
// shard with no coordination.
func TestPlanShardsPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 49, 100, 101, 1000} {
		for _, count := range []int{1, 2, 3, 7, 49, 100, 150} {
			plans, err := PlanShards(n, count)
			if err != nil {
				t.Fatalf("PlanShards(%d, %d): %v", n, count, err)
			}
			if len(plans) != count {
				t.Fatalf("PlanShards(%d, %d): %d plans", n, count, len(plans))
			}
			next := 0
			minSize, maxSize := n, 0
			for i, p := range plans {
				if p.Shard != (Shard{Index: i + 1, Count: count}) {
					t.Fatalf("plan %d has shard %+v", i, p.Shard)
				}
				if p.Start != next {
					t.Fatalf("PlanShards(%d, %d): plan %d starts at %d, want %d (gap or overlap)", n, count, i, p.Start, next)
				}
				if p.Size() < 0 {
					t.Fatalf("negative slice size %d", p.Size())
				}
				if lo, hi := p.Shard.Bounds(n); lo != p.Start || hi != p.End {
					t.Fatalf("Bounds(%d) of %s = [%d,%d), plan says [%d,%d)", n, p.Shard, lo, hi, p.Start, p.End)
				}
				if p.Size() < minSize {
					minSize = p.Size()
				}
				if p.Size() > maxSize {
					maxSize = p.Size()
				}
				next = p.End
			}
			if next != n {
				t.Fatalf("PlanShards(%d, %d): plans cover [0,%d), want [0,%d)", n, count, next, n)
			}
			if maxSize-minSize > 1 {
				t.Fatalf("PlanShards(%d, %d): unbalanced slices, sizes span [%d,%d]", n, count, minSize, maxSize)
			}
		}
	}
	if _, err := PlanShards(10, 0); !errors.Is(err, ErrBadShard) {
		t.Fatalf("PlanShards(10, 0): want ErrBadShard, got %v", err)
	}
	if _, err := PlanShards(-1, 3); err == nil {
		t.Fatal("PlanShards(-1, 3): negative design count accepted")
	}
}

// TestShardedRunsMergeToSingleProcess is the core tentpole property at the
// engine level: running every shard of a partitioned space to completion and
// merging their checkpoints must reproduce exactly the optimum and Pareto
// frontier of one unsharded Run — and resuming the merged checkpoint must
// find no work left.
func TestShardedRunsMergeToSingleProcess(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	dir := t.TempDir()

	clean, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, Options{})
	if err != nil {
		t.Fatalf("unsharded run: %v", err)
	}

	const shards = 3
	var paths []string
	for i := 1; i <= shards; i++ {
		ckpt := filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		res, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
			Options{BatchSize: 5, Plan: Plan{Shard: Shard{Index: i, Count: shards}}, Checkpoint: CheckpointOptions{Path: ckpt}})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, shards, err)
		}
		if res.Report.OutOfShard == 0 {
			t.Fatalf("shard %d/%d claims the whole space", i, shards)
		}
		if res.Report.Skipped != 0 {
			t.Fatalf("completed shard %d/%d skipped %d designs", i, shards, res.Report.Skipped)
		}
		paths = append(paths, ckpt)
	}

	merged := filepath.Join(dir, "merged.json")
	rep, err := MergeCheckpoints(merged, paths...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !rep.Complete() {
		t.Fatalf("merge of complete shards reports pending work: %+v", rep)
	}
	if rep.Done != clean.Report.Evaluated {
		t.Fatalf("merged %d done designs, clean run evaluated %d", rep.Done, clean.Report.Evaluated)
	}
	if len(rep.Inputs) != shards {
		t.Fatalf("merge report lists %d inputs, want %d", len(rep.Inputs), shards)
	}
	var sliceSum int
	for _, p := range rep.Inputs {
		sliceSum += p.End - p.Start
	}
	if sliceSum != rep.Total {
		t.Fatalf("shard slices cover %d designs, space has %d", sliceSum, rep.Total)
	}

	final, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Checkpoint: CheckpointOptions{Path: merged, Resume: true}})
	if err != nil {
		t.Fatalf("resume of merged checkpoint: %v", err)
	}
	if final.Report.Restored != clean.Report.Evaluated {
		t.Fatalf("merged resume restored %d designs, want all %d", final.Report.Restored, clean.Report.Evaluated)
	}
	if !sameOutcome(final.Optimal, clean.Optimal) {
		t.Fatalf("merged optimum differs:\nmerged: %+v\nclean:  %+v", final.Optimal.Design, clean.Optimal.Design)
	}
	if len(final.Frontier) != len(clean.Frontier) {
		t.Fatalf("merged frontier has %d points, clean has %d", len(final.Frontier), len(clean.Frontier))
	}
	for i := range clean.Frontier {
		if !sameOutcome(final.Frontier[i], clean.Frontier[i]) {
			t.Fatalf("frontier point %d differs after merge: %+v vs %+v",
				i, final.Frontier[i].Design, clean.Frontier[i].Design)
		}
	}
}

// TestShardCheckpointRejectsWrongShard: a checkpoint written by shard i/N
// must not resume under a different slice — that would orphan the designs
// between the two slices.
func TestShardCheckpointRejectsWrongShard(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	ckpt := filepath.Join(t.TempDir(), "shard1.json")

	if _, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Plan: Plan{Shard: Shard{1, 3}}, Checkpoint: CheckpointOptions{Path: ckpt}}); err != nil {
		t.Fatalf("shard 1/3: %v", err)
	}
	_, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Plan: Plan{Shard: Shard{2, 3}}, Checkpoint: CheckpointOptions{Path: ckpt, Resume: true}})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resuming shard 1/3's checkpoint as 2/3: want ErrCheckpointMismatch, got %v", err)
	}
	// The same shard resumes its own checkpoint fine.
	if _, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Plan: Plan{Shard: Shard{1, 3}}, Checkpoint: CheckpointOptions{Path: ckpt, Resume: true}}); err != nil {
		t.Fatalf("same-shard resume: %v", err)
	}
	// And an unsharded run may adopt it whole (lost-shard recovery).
	res, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Checkpoint: CheckpointOptions{Path: ckpt, Resume: true}})
	if err != nil {
		t.Fatalf("unsharded adoption: %v", err)
	}
	if res.Report.Skipped != 0 || res.Report.OutOfShard != 0 {
		t.Fatalf("unsharded adoption left work behind: %+v", res.Report)
	}
}

// TestEmptyShardIsNoop: with more shards than designs, trailing shards get
// empty slices; running one completes immediately without fabricating an
// ErrAllDesignsFailed.
func TestEmptyShardIsNoop(t *testing.T) {
	in := testInputs(t)
	space := denseSpace(in, 2) // 4 designs
	res, err := Run(context.Background(), in, space, explorer.RenewablesOnly,
		Options{Plan: Plan{Shard: Shard{5, 5}}})
	if err != nil {
		t.Fatalf("empty shard: %v", err)
	}
	if res.Report.Evaluated != 0 || res.Report.OutOfShard != 4 {
		t.Fatalf("empty shard evaluated something: %+v", res.Report)
	}
}

// TestInvalidShardOptionRejected: programmatic use of a malformed shard is
// an error, not a silent whole-space sweep.
func TestInvalidShardOptionRejected(t *testing.T) {
	in := testInputs(t)
	_, err := Run(context.Background(), in, testSpace(in), explorer.RenewablesOnly,
		Options{Plan: Plan{Shard: Shard{4, 3}}})
	if !errors.Is(err, ErrBadShard) {
		t.Fatalf("want ErrBadShard, got %v", err)
	}
}
