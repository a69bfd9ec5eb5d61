package sweep

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carbonexplorer/internal/explorer"
)

// checkpointSeeds writes one checkpoint of every kind the engine reads — a
// version-1 file, version-2 exhaustive and sharded checkpoints, a version-3
// adaptive one — plus the 107-byte file whose status overshoots its declared
// designs, and returns their bytes.
func checkpointSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	in := testInputs(tb)
	space := testSpace(in)
	strategy := explorer.RenewablesBatteryCAS
	dir := tb.TempDir()
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	run := func(name string, plan Plan) []byte {
		path := filepath.Join(dir, name)
		if _, err := Run(context.Background(), in, space, strategy,
			Options{Plan: plan, Checkpoint: CheckpointOptions{Path: path}}); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		return read(path)
	}
	designs := space.Enumerate(strategy, in.AvgDemandMW())
	v1, err := json.Marshal(checkpointFile{
		Version:   checkpointVersionV1,
		SpaceHash: sweepHash(in, strategy, designs),
		Site:      in.Site.ID,
		Strategy:  int(strategy),
		Status:    strings.Repeat("D", 40) + "F" + strings.Repeat("P", len(designs)-41),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		v1,
		run("exhaustive.json", Plan{}),
		run("sharded.json", Plan{Shard: Shard{Index: 2, Count: 3}}),
		run("adaptive.json", adaptivePlan()),
		[]byte(overshootingCheckpoint),
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes to ReadCheckpoint, the reader
// serve.Load runs on files from outside the process. It must never panic,
// and an accepted file accounts for every design exactly once: its status
// counts sum to Designs, which for versions 2 and 3 is the declared count.
func FuzzReadCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "checkpoint.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := ReadCheckpoint(path)
		if err != nil {
			return
		}
		if sum := ck.Done + ck.Pending + ck.FailedOnce + ck.FailedPerm; sum != ck.Designs {
			t.Fatalf("status counts sum to %d of %d designs", sum, ck.Designs)
		}
		var head checkpointFile
		if err := json.Unmarshal(data, &head); err != nil {
			t.Fatalf("accepted file does not decode: %v", err)
		}
		if head.Version != checkpointVersionV1 && ck.Designs != head.Designs {
			t.Fatalf("read %d designs, file declares %d", ck.Designs, head.Designs)
		}
	})
}
