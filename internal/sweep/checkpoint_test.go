package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"carbonexplorer/internal/explorer"
)

// decodeStatusRLE inverts encodeStatusRLE for a status of exactly n designs.
func decodeStatusRLE(enc string, n int) ([]byte, error) {
	runs, err := parseStatusRLE(enc, n)
	if err != nil {
		return nil, err
	}
	return expandRuns(runs, n), nil
}

// TestStatusRLERoundTrip: encode/decode are inverses over representative
// status shapes.
func TestStatusRLERoundTrip(t *testing.T) {
	cases := []string{
		"",
		"D",
		"P",
		"DDDD",
		"DDDDFPP",
		"DFDFDFDF",
		"PPPPPPPPPPDX",
		strings.Repeat("D", 1000) + "F" + strings.Repeat("P", 999),
	}
	for _, c := range cases {
		enc := encodeStatusRLE([]byte(c))
		dec, err := decodeStatusRLE(enc, len(c))
		if err != nil {
			t.Fatalf("decode(%q): %v", enc, err)
		}
		if string(dec) != c {
			t.Fatalf("round trip changed status: %q -> %q -> %q", c, enc, dec)
		}
	}
	if got := encodeStatusRLE([]byte("DDDDFPP")); got != "4D1F2P" {
		t.Fatalf("encodeStatusRLE(DDDDFPP) = %q, want 4D1F2P", got)
	}
}

// TestStatusRLEMultiMillionDesigns is the ROADMAP compaction scenario: a
// checkpoint status for a multi-million-design space must round-trip
// exactly, and the realistic shape — one long done prefix, a few scattered
// failures, a long pending tail — must collapse to a few dozen bytes
// instead of one byte per design.
func TestStatusRLEMultiMillionDesigns(t *testing.T) {
	const n = 3_000_000
	status := bytes.Repeat([]byte{statusDone}, n)
	// A sweep mid-flight: done prefix, two failures, pending tail.
	for i := n / 2; i < n; i++ {
		status[i] = statusPending
	}
	status[n/4] = statusFailedOnce
	status[n/3] = statusFailedPerm

	enc := encodeStatusRLE(status)
	if len(enc) > 100 {
		t.Fatalf("RLE of a %d-design sweep took %d bytes; compaction failed", n, len(enc))
	}
	dec, err := decodeStatusRLE(enc, n)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec, status) {
		t.Fatalf("multi-million round trip corrupted the status string")
	}

	// Worst case — maximally alternating statuses — still round-trips.
	alt := make([]byte, 1_000_000)
	runes := []byte{statusDone, statusPending, statusFailedOnce, statusFailedPerm}
	for i := range alt {
		alt[i] = runes[i%len(runes)]
	}
	dec, err = decodeStatusRLE(encodeStatusRLE(alt), len(alt))
	if err != nil {
		t.Fatalf("decode alternating: %v", err)
	}
	if !bytes.Equal(dec, alt) {
		t.Fatal("alternating round trip corrupted the status string")
	}
}

// TestStatusRLERejectsMalformed: corrupt encodings must fail loudly, each
// for its own reason. Every case declares the design count its runs would
// describe, so only the corruption it names can reject it.
func TestStatusRLERejectsMalformed(t *testing.T) {
	for _, c := range []struct {
		enc  string
		n    int
		want string
	}{
		{"D", 1, "malformed run-length"},                                  // rune without count
		{"4", 4, "malformed run-length"},                                  // count without rune
		{"4D3", 7, "malformed run-length"},                                // trailing digits
		{"0D", 0, "bad run length"},                                       // zero-length run
		{"-1D", 0, "malformed run-length"},                                // negative run ('-' is no digit)
		{"4Z", 4, "unknown design status"},                                // unknown status rune
		{"4D 2P", 6, "malformed run-length"},                              // stray byte
		{"999999999999999999999D", maxStatusLen, "bad run length"},        // overflows int
		{"999999999D", 999999999, "outside"},                              // exceeds maxStatusLen
		{fmt.Sprintf("%dD", maxStatusLen+1), maxStatusLen + 1, "outside"}, // one past maxStatusLen
		{"", -1, "outside"},                                               // negative count
		{"4D2P", 5, "more than its 5 designs"},                            // second run overshoots
		{"268435455D", 1470, "more than its 1470 designs"},                // overshoots at once
		{"4D", 5, "4 of its 5 designs"},                                   // falls short
	} {
		_, err := parseStatusRLE(c.enc, c.n)
		if !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseStatusRLE(%q, %d) = %v, want %v naming %q", c.enc, c.n, err, ErrCheckpointMismatch, c.want)
		}
	}
	// The bound itself is a valid count; parsing never expands the runs.
	if runs, err := parseStatusRLE(fmt.Sprintf("%dD", maxStatusLen), maxStatusLen); err != nil || len(runs) != 1 {
		t.Fatalf("parseStatusRLE at maxStatusLen = %v, %v; want one run", runs, err)
	}
}

// TestCheckpointV1StillLoads: a version-1 checkpoint (plain status string,
// no shard/designs fields, no failure indices) written by the previous
// release must resume cleanly, and the very next save must rewrite it as
// version 2 with an RLE status.
func TestCheckpointV1StillLoads(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.json")

	clean, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate a v1 file recording a half-done sweep: the first half of
	// the enumeration done, with the fold state of exactly those designs.
	designs := space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW())
	half := len(designs) / 2
	var best *explorer.Outcome
	var frontier explorer.ParetoSet
	for _, d := range designs[:half] {
		o, err := in.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		if best == nil || explorer.Better(o, *best) {
			best = &o
		}
		frontier.Add(o)
	}
	v1 := checkpointFile{
		Version:   checkpointVersionV1,
		SpaceHash: sweepHash(in, explorer.RenewablesBatteryCAS, designs),
		Site:      in.Site.ID,
		Strategy:  int(explorer.RenewablesBatteryCAS),
		Status:    strings.Repeat("D", half) + strings.Repeat("P", len(designs)-half),
	}
	bo := saveOutcome(*best)
	v1.Best = &bo
	for _, o := range frontier.Frontier() {
		v1.Frontier = append(v1.Frontier, saveOutcome(o))
	}
	raw, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Checkpoint: CheckpointOptions{Path: ckpt, Resume: true}})
	if err != nil {
		t.Fatalf("resuming a v1 checkpoint: %v", err)
	}
	if res.Report.Restored != half {
		t.Fatalf("v1 resume restored %d designs, want %d", res.Report.Restored, half)
	}
	if !sameOutcome(res.Optimal, clean.Optimal) {
		t.Fatalf("v1 resume optimum differs: %+v vs %+v", res.Optimal.Design, clean.Optimal.Design)
	}

	// The rewritten file is version 2 with an RLE status.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Version != checkpointVersion {
		t.Fatalf("resumed v1 file rewritten as version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.Designs != len(designs) {
		t.Fatalf("v2 rewrite records %d designs, want %d", ck.Designs, len(designs))
	}
	status, err := ck.statusBytes()
	if err != nil {
		t.Fatalf("v2 rewrite has undecodable status: %v", err)
	}
	if len(status) != len(designs) {
		t.Fatalf("v2 status decodes to %d designs, want %d", len(status), len(designs))
	}
	if len(ck.Status) >= len(designs) {
		t.Fatalf("v2 status (%d bytes) is not compressed below one byte per design (%d)", len(ck.Status), len(designs))
	}
}

// TestCheckpointV1GarbageStatusRejected: a v1 file with unknown status
// runes is a mismatch, not a crash or a silent skip.
func TestCheckpointV1GarbageStatusRejected(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	designs := space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW())

	v1 := checkpointFile{
		Version:   checkpointVersionV1,
		SpaceHash: sweepHash(in, explorer.RenewablesBatteryCAS, designs),
		Site:      in.Site.ID,
		Strategy:  int(explorer.RenewablesBatteryCAS),
		Status:    strings.Repeat("?", len(designs)),
	}
	raw, _ := json.Marshal(v1)
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		Options{Checkpoint: CheckpointOptions{Path: ckpt, Resume: true}})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("garbage v1 status: want ErrCheckpointMismatch, got %v", err)
	}
}

// overshootingCheckpoint is a 107-byte version-2 checkpoint that declares
// 1,470 designs while its status claims 268,435,455.
const overshootingCheckpoint = `{"version":2,"space_hash":"0123456789abcdef","site":"NC","strategy":3,"designs":1470,"status":"268435455D"}`

// allocatedBytes reports how many bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointStatusMatchesDeclaredDesigns: a version-2 status must
// describe exactly the declared designs. ReadCheckpoint, Progress and
// ProgressWithin reject one that overshoots them at its first run, allocating
// next to nothing, and one that falls short; a file whose status and count
// agree on a huge space is counted without materializing its status, and a
// resume compares the count with the enumeration before decoding.
func TestCheckpointStatusMatchesDeclaredDesigns(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if len(overshootingCheckpoint) != 107 {
		t.Fatalf("fixture is %d bytes, want 107", len(overshootingCheckpoint))
	}
	short := strings.Replace(overshootingCheckpoint, "268435455D", "1000D", 1)
	for _, path := range []string{write("overshoot.json", overshootingCheckpoint), write("short.json", short)} {
		for name, read := range map[string]func() error{
			"ReadCheckpoint": func() error { _, err := ReadCheckpoint(path); return err },
			"Progress":       func() error { _, err := Progress(path); return err },
			"ProgressWithin": func() error { _, err := ProgressWithin(path, Shard{}); return err },
		} {
			var err error
			if n := allocatedBytes(func() { err = read() }); n >= 1<<20 {
				t.Fatalf("%s of %s allocated %d bytes", name, filepath.Base(path), n)
			}
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("%s of %s: want ErrCheckpointMismatch, got %v", name, filepath.Base(path), err)
			}
		}
	}

	huge := write("huge.json", strings.Replace(overshootingCheckpoint, `"designs":1470`, `"designs":268435455`, 1))
	var ck *Checkpoint
	var err error
	if n := allocatedBytes(func() { ck, err = ReadCheckpoint(huge) }); err != nil || n >= 1<<20 {
		t.Fatalf("ReadCheckpoint of a consistent 268,435,455-design file: %v after %d bytes", err, n)
	}
	if ck.Designs != 268435455 || ck.Done != ck.Designs {
		t.Fatalf("huge checkpoint read as %d designs, %d done", ck.Designs, ck.Done)
	}

	in := testInputs(t)
	space := testSpace(in)
	designs := space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW())
	foreign := strings.Replace(strings.Replace(overshootingCheckpoint, `"designs":1470`, `"designs":268435455`, 1),
		"0123456789abcdef", sweepHash(in, explorer.RenewablesBatteryCAS, designs), 1)
	path := write("resume.json", foreign)
	if n := allocatedBytes(func() {
		_, err = Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
			Options{Checkpoint: CheckpointOptions{Path: path, Resume: true}})
	}); n >= 1<<20 {
		t.Fatalf("resuming a 268,435,455-design file over %d designs allocated %d bytes", len(designs), n)
	}
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("resume: want ErrCheckpointMismatch, got %v", err)
	}
}
