package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carbonexplorer/internal/explorer"
)

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
		dec, err := decodeStatusRLE(enc)
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
	dec, err := decodeStatusRLE(enc)
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
	dec, err = decodeStatusRLE(encodeStatusRLE(alt))
	if err != nil {
		t.Fatalf("decode alternating: %v", err)
	}
	if !bytes.Equal(dec, alt) {
		t.Fatal("alternating round trip corrupted the status string")
	}
}

// TestStatusRLERejectsMalformed: corrupt encodings must fail loudly.
func TestStatusRLERejectsMalformed(t *testing.T) {
	for _, enc := range []string{
		"D",                      // rune without count
		"4",                      // count without rune
		"4D3",                    // trailing digits
		"0D",                     // zero-length run
		"-1D",                    // negative run
		"4Z",                     // unknown status rune
		"4D 2P",                  // stray byte
		"999999999999999999999D", // overflows int
		"999999999D",             // exceeds maxStatusLen
	} {
		if _, err := decodeStatusRLE(enc); err == nil {
			t.Fatalf("decodeStatusRLE(%q) accepted", enc)
		}
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
