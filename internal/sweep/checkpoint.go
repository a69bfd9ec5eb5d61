package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/units"
)

// checkpointVersion is the on-disk schema version exhaustive sweeps emit.
// Version 2 run-length-encodes the design-status string and adds shard
// metadata; the loader still reads version 1 (plain status string,
// unsharded). Adaptive sweeps emit version 3, which adds the refinement
// round state (mode, base hash, round, cells, prior-round accounting) —
// exhaustive checkpoints stay byte-identical to version 2. Load rejects any
// other version with ErrCheckpointVersion instead of misreading the file.
const checkpointVersion = 2

// checkpointVersionV1 is the legacy schema: plain (one rune per design)
// status string, no shard or designs fields. Read-only.
const checkpointVersionV1 = 1

// checkpointVersionV3 is the adaptive schema: a version-2 checkpoint over
// the current round's work-list (its SpaceHash fingerprints the ROUND, so
// resume/merge/coordination validation applies per round unchanged) plus
// the round state needed to reconstruct the work-list and fast-forward a
// resumed refinement.
const checkpointVersionV3 = 3

var (
	// ErrCheckpointVersion is returned (wrapped) when a checkpoint file was
	// written by an incompatible schema version.
	ErrCheckpointVersion = errors.New("sweep: unsupported checkpoint version")
	// ErrCheckpointMismatch is returned (wrapped) when a checkpoint file
	// does not describe this sweep — different site, strategy, space, or
	// inputs. Resuming it would silently mix results from two different
	// sweeps, so it is rejected.
	ErrCheckpointMismatch = errors.New("sweep: checkpoint does not match this sweep")
)

// Per-design status runes, one per design in enumeration order. A string
// keeps the checkpoint human-inspectable: `jq -r .status` paints the sweep's
// progress directly.
const (
	statusPending    = 'P' // never evaluated
	statusDone       = 'D' // evaluated successfully and folded
	statusFailedOnce = 'F' // failed once; eligible for the retry pass
	statusFailedPerm = 'X' // failed permanently (retried, or retry disabled)
)

// checkpointFile is the versioned JSON schema persisted between runs. It
// holds everything the fold needs to continue — per-design status, the
// running best, the running Pareto frontier, and permanent failures — and
// deliberately nothing else: evaluated outcomes that are neither optimal nor
// on the frontier are not kept, which is what bounds the file (and the
// resumed sweep's memory) by the frontier size rather than the grid size.
type checkpointFile struct {
	Version   int    `json:"version"`
	SpaceHash string `json:"space_hash"`
	Site      string `json:"site"`
	Strategy  int    `json:"strategy"`
	// Designs is the total number of designs in the FULL space (version 2).
	// Even a shard checkpoint records the whole enumeration, so any set of
	// shard checkpoints agrees on the index space and can be merged.
	Designs int `json:"designs,omitempty"`
	// Shard is the "index/count" slice the writing run evaluated, or ""
	// for an unsharded run or a merged checkpoint (version 2).
	Shard string `json:"shard,omitempty"`
	// Status covers every design of the full space in enumeration order.
	// Version 1 stores one rune per design; version 2 run-length encodes
	// the same runes as count+rune pairs ("40D1F9P").
	Status    string         `json:"status"`
	Retried   int            `json:"retried"`
	Recovered int            `json:"recovered"`
	Best      *savedOutcome  `json:"best,omitempty"`
	Frontier  []savedOutcome `json:"frontier,omitempty"`
	Failures  []savedFailure `json:"failures,omitempty"`

	// Version-3 (adaptive) round state. Status, Designs, Shard, Retried,
	// Recovered, and Failures above are round-local — they describe the
	// current round's work-list — while Best and Frontier are cumulative
	// over all rounds (each round folds from the prior rounds' state).
	//
	// Mode is "adaptive" for version-3 files and empty otherwise.
	Mode string `json:"mode,omitempty"`
	// BaseHash fingerprints the refinement as a whole (site, strategy,
	// inputs, bounding box, coarse resolution, tolerance, round budget);
	// SpaceHash fingerprints only the current round's work-list.
	BaseHash string `json:"base_hash,omitempty"`
	// Round is the refinement round this checkpoint belongs to (0 is the
	// coarse pass).
	Round int `json:"round,omitempty"`
	// Cells is the round's cell work-list; together with Round it
	// deterministically reconstructs the design work-list, so a resumed
	// refinement needs nothing else to re-derive what it was evaluating.
	Cells []savedCell `json:"cells,omitempty"`
	// Converged marks the refinement's final checkpoint: no cell survived
	// pruning (or the round budget was spent) and Frontier is the answer.
	Converged bool `json:"converged,omitempty"`
	// Prior carries the accounting of completed earlier rounds so a
	// resumed refinement reports cumulative totals.
	Prior *savedPrior `json:"prior,omitempty"`
}

// savedCell is one refinement cell: the lower-corner lattice index of the
// cell per axis, in the fixed explorer axis order (wind, solar, battery,
// extra capacity).
type savedCell struct {
	Idx [explorer.NumAxes]int `json:"idx"`
}

// savedPrior accumulates the completed prior rounds of an adaptive sweep.
type savedPrior struct {
	// Evals is the number of successfully evaluated designs per completed
	// round, in round order.
	Evals []int `json:"evals"`
	// Retried and Recovered sum the retry accounting of completed rounds.
	Retried   int `json:"retried,omitempty"`
	Recovered int `json:"recovered,omitempty"`
	// Failures lists designs that failed permanently in completed rounds.
	Failures []savedFailure `json:"failures,omitempty"`
}

// statusRun is a run of n consecutive designs in status s.
type statusRun struct {
	s byte
	n int
}

// statusRuns validates the per-design status string according to the file's
// schema version and returns it as runs, with the number of designs they
// cover. A version-1 status holds one rune per design. A version-2 or -3
// status must cover exactly the file's declared design count, and parsing
// stops at the first run that overshoots it. Either way the runs take memory
// in proportion to the file, never to the count it declares.
func (c *checkpointFile) statusRuns() ([]statusRun, int, error) {
	if c.Version != checkpointVersionV1 {
		runs, err := parseStatusRLE(c.Status, c.Designs)
		return runs, c.Designs, err
	}
	status := []byte(c.Status)
	for _, s := range status {
		if !validStatus(s) {
			return nil, 0, fmt.Errorf("%w: unknown design status %q", ErrCheckpointMismatch, s)
		}
	}
	return runsOf(status), len(status), nil
}

// runsOf returns a status string of one byte per design as runs.
func runsOf(status []byte) []statusRun {
	var runs []statusRun
	for _, s := range status {
		if k := len(runs) - 1; k >= 0 && runs[k].s == s {
			runs[k].n++
		} else {
			runs = append(runs, statusRun{s: s, n: 1})
		}
	}
	return runs
}

// statusBytes decodes the per-design status string into one byte per
// design, validated as statusRuns does.
func (c *checkpointFile) statusBytes() ([]byte, error) {
	runs, n, err := c.statusRuns()
	if err != nil {
		return nil, err
	}
	return expandRuns(runs, n), nil
}

// expandRuns writes runs covering n designs out as one byte per design.
func expandRuns(runs []statusRun, n int) []byte {
	out := make([]byte, 0, n)
	for _, r := range runs {
		for k := 0; k < r.n; k++ {
			out = append(out, r.s)
		}
	}
	return out
}

// runCounts tallies the statuses of runs inside the design slice [lo, hi).
func runCounts(runs []statusRun, lo, hi int) (done, pending, failedOnce, failedPerm int) {
	start := 0
	for _, r := range runs {
		k := min(start+r.n, hi) - max(start, lo)
		start += r.n
		if k <= 0 {
			continue
		}
		switch r.s {
		case statusDone:
			done += k
		case statusPending:
			pending += k
		case statusFailedOnce:
			failedOnce += k
		case statusFailedPerm:
			failedPerm += k
		}
	}
	return
}

// shard parses the checkpoint's shard label ("" means unsharded).
func (c *checkpointFile) shard() (Shard, error) {
	sh, err := ParseShard(c.Shard)
	if err != nil {
		return Shard{}, fmt.Errorf("%w: shard label: %w", ErrCheckpointMismatch, err)
	}
	return sh, nil
}

func validStatus(s byte) bool {
	switch s {
	case statusPending, statusDone, statusFailedOnce, statusFailedPerm:
		return true
	}
	return false
}

// encodeStatusRLE run-length encodes a status string as decimal-count+rune
// pairs: "DDDDFPP" -> "4D1F2P". Long uniform runs — the common shape of a
// multi-million-design sweep, where most designs are done or pending —
// collapse to a handful of bytes, which is what keeps version-2 checkpoints
// small enough to write every few hundred designs on spaces with millions
// of points (the ROADMAP's checkpoint-compaction item).
func encodeStatusRLE(status []byte) string {
	var b strings.Builder
	for i := 0; i < len(status); {
		j := i
		for j < len(status) && status[j] == status[i] {
			j++
		}
		b.WriteString(strconv.Itoa(j - i))
		b.WriteByte(status[i])
		i = j
	}
	return b.String()
}

// parseStatusRLE parses an encodeStatusRLE string that must describe exactly
// n designs, rejecting malformed input: missing counts, zero/negative runs,
// unknown status runes, a run that overshoots n (parsing stops there), a
// total short of n, or an n so large it cannot describe a real sweep.
func parseStatusRLE(enc string, n int) ([]statusRun, error) {
	if n < 0 || n > maxStatusLen {
		return nil, fmt.Errorf("%w: %d designs is outside [0, %d]", ErrCheckpointMismatch, n, maxStatusLen)
	}
	var runs []statusRun
	total := 0
	for i := 0; i < len(enc); {
		j := i
		for j < len(enc) && enc[j] >= '0' && enc[j] <= '9' {
			j++
		}
		if j == i || j == len(enc) {
			return nil, fmt.Errorf("%w: malformed run-length status near byte %d", ErrCheckpointMismatch, i)
		}
		k, err := strconv.Atoi(enc[i:j])
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("%w: bad run length %q in status", ErrCheckpointMismatch, enc[i:j])
		}
		r := enc[j]
		if !validStatus(r) {
			return nil, fmt.Errorf("%w: unknown design status %q", ErrCheckpointMismatch, r)
		}
		if k > n-total {
			return nil, fmt.Errorf("%w: status describes more than its %d designs", ErrCheckpointMismatch, n)
		}
		runs = append(runs, statusRun{s: r, n: k})
		total += k
		i = j + 1
	}
	if total != n {
		return nil, fmt.Errorf("%w: status describes %d of its %d designs", ErrCheckpointMismatch, total, n)
	}
	return runs, nil
}

// maxStatusLen bounds how many designs a checkpoint may declare, so a
// corrupt count cannot balloon the memory of a decoded status.
const maxStatusLen = 1 << 28

// savedOutcome is explorer.Outcome minus the hourly battery state-of-charge
// trace, which the streaming path drops (it would make checkpoints and
// frontier memory scale with the year length). All floats round-trip exactly
// through JSON (Go emits shortest-exact representations).
type savedOutcome struct {
	Design                explorer.Design `json:"design"`
	CoveragePct           float64         `json:"coverage_pct"`
	Operational           float64         `json:"operational_g"`
	Embodied              float64         `json:"embodied_g"`
	EmbodiedRenewables    float64         `json:"embodied_renewables_g"`
	EmbodiedBattery       float64         `json:"embodied_battery_g"`
	EmbodiedServers       float64         `json:"embodied_servers_g"`
	GridEnergyMWh         float64         `json:"grid_energy_mwh"`
	SurplusMWh            float64         `json:"surplus_mwh"`
	BatteryCyclesPerDay   float64         `json:"battery_cycles_per_day"`
	ExtraCapacityUsedFrac float64         `json:"extra_capacity_used_frac"`
}

// savedFailure records a failed design and its cause. Error identity does
// not survive serialization — a resumed sweep reports restored failures as
// plain string errors. Index is the design's position in the enumeration
// (version 2), which lets a merge drop failure records for designs another
// shard attempt later completed; version-1 files load with Index -1
// (unknown).
type savedFailure struct {
	Design    explorer.Design `json:"design"`
	Index     int             `json:"index"`
	Error     string          `json:"error"`
	Permanent bool            `json:"permanent"`
}

func saveOutcome(o explorer.Outcome) savedOutcome {
	return savedOutcome{
		Design:                o.Design,
		CoveragePct:           o.CoveragePct,
		Operational:           float64(o.Operational),
		Embodied:              float64(o.Embodied),
		EmbodiedRenewables:    float64(o.EmbodiedRenewables),
		EmbodiedBattery:       float64(o.EmbodiedBattery),
		EmbodiedServers:       float64(o.EmbodiedServers),
		GridEnergyMWh:         o.GridEnergyMWh,
		SurplusMWh:            o.SurplusMWh,
		BatteryCyclesPerDay:   o.BatteryCyclesPerDay,
		ExtraCapacityUsedFrac: o.ExtraCapacityUsedFrac,
	}
}

func (s savedOutcome) outcome() explorer.Outcome {
	return explorer.Outcome{
		Design:                s.Design,
		CoveragePct:           s.CoveragePct,
		Operational:           units.GramsCO2(s.Operational),
		Embodied:              units.GramsCO2(s.Embodied),
		EmbodiedRenewables:    units.GramsCO2(s.EmbodiedRenewables),
		EmbodiedBattery:       units.GramsCO2(s.EmbodiedBattery),
		EmbodiedServers:       units.GramsCO2(s.EmbodiedServers),
		GridEnergyMWh:         s.GridEnergyMWh,
		SurplusMWh:            s.SurplusMWh,
		BatteryCyclesPerDay:   s.BatteryCyclesPerDay,
		ExtraCapacityUsedFrac: s.ExtraCapacityUsedFrac,
	}
}

// SpaceHash fingerprints a sweep for coordination handshakes: two workers
// (or a worker and a network coordinator) agree they are sweeping the same
// space exactly when their SpaceHash values match. It is the same
// fingerprint checkpoints are validated against on resume and merge.
func SpaceHash(in *explorer.Inputs, strategy explorer.Strategy, designs []explorer.Design) string {
	return sweepHash(in, strategy, designs)
}

// sweepHash fingerprints everything that determines the design list and its
// evaluation: the site, the strategy, the input fingerprint (year length and
// average demand, which scale battery designs), and every design's exact
// field bits. A checkpoint is only resumable against a byte-identical
// fingerprint.
func sweepHash(in *explorer.Inputs, strategy explorer.Strategy, designs []explorer.Design) string {
	h := fnv.New64a()
	// One reusable buffer for every write: passing a fresh array through
	// the hash.Hash interface would heap-allocate it per field, and this
	// runs 7 writes per design on every sweep start.
	buf := make([]byte, 8)
	writeUint64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		//carbonlint:allow errwrap hash writers (fnv) are documented never to return an error
		h.Write(buf)
	}
	write := func(v float64) { writeUint64(math.Float64bits(v)) }
	//carbonlint:allow errwrap hash.Hash.Write is documented never to return an error
	h.Write([]byte(in.Site.ID))
	writeUint64(uint64(strategy))
	writeUint64(uint64(in.Demand.Len()))
	write(in.AvgDemandMW())
	writeUint64(uint64(len(designs)))
	for _, d := range designs {
		write(d.WindMW)
		write(d.SolarMW)
		write(d.BatteryMWh)
		write(d.DoD)
		writeUint64(uint64(d.BatteryTech))
		write(d.FlexibleRatio)
		write(d.ExtraCapacityFrac)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// tmpSeq disambiguates concurrent WriteFileAtomic staging files within one
// process; the PID disambiguates across processes.
var tmpSeq atomic.Uint64

// WriteFileAtomic persists data at path atomically: write to a temp file in
// the target's directory, then rename over the target, so an interrupted
// write never leaves a torn file behind. It is the single sanctioned write
// path the atomicwrite lint funnels checkpoint saves through, and the
// coordinator's lease files reuse it for the same crash-safety guarantee.
// The staging name is qualified by PID and a process-wide sequence number,
// so concurrent writers — a stolen lease's old owner racing the thief, or
// two workers in one process — cannot clobber each other's temp file
// mid-write; the racing renames then publish complete files in some order,
// which the monotone checkpoint design tolerates.
func WriteFileAtomic(path string, data []byte) error {
	tmp := filepath.Join(filepath.Dir(path), fmt.Sprintf("%s.tmp.%d.%d", filepath.Base(path), os.Getpid(), tmpSeq.Add(1)))
	//carbonlint:allow atomicwrite this is the atomic helper itself: temp file in the target directory, then rename below
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("sweep: writing %s: %w", filepath.Base(path), err)
	}
	//carbonlint:allow atomicwrite the commit half of the atomic helper: rename over the target is the crash-safe publish
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sweep: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// save atomically persists the checkpoint through WriteFileAtomic, so an
// interrupted save never leaves a torn checkpoint behind.
func (c *checkpointFile) save(path string) error {
	data, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return fmt.Errorf("sweep: encoding checkpoint: %w", err)
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// loadCheckpoint reads and version-checks a checkpoint file.
func loadCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: reading checkpoint: %w", err)
	}
	var c checkpointFile
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("sweep: decoding checkpoint %s: %w", path, err)
	}
	if c.Version != checkpointVersion && c.Version != checkpointVersionV1 && c.Version != checkpointVersionV3 {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d through %d",
			ErrCheckpointVersion, c.Version, checkpointVersionV1, checkpointVersionV3)
	}
	if c.Version == checkpointVersionV1 {
		// v1 predates per-failure indices and shard metadata.
		for i := range c.Failures {
			c.Failures[i].Index = -1
		}
	}
	return &c, nil
}

// matches verifies the checkpoint describes this exact sweep and returns
// the decoded per-design status string.
func (c *checkpointFile) matches(hash string, nDesigns int) ([]byte, error) {
	if c.SpaceHash != hash {
		return nil, fmt.Errorf("%w: space hash %s vs %s", ErrCheckpointMismatch, c.SpaceHash, hash)
	}
	// Compared before decoding: the status decodes to the declared count.
	if c.Version != checkpointVersionV1 && c.Designs != nDesigns {
		return nil, fmt.Errorf("%w: checkpoint records %d designs vs %d enumerated", ErrCheckpointMismatch, c.Designs, nDesigns)
	}
	status, err := c.statusBytes()
	if err != nil {
		return nil, err
	}
	if len(status) != nDesigns {
		return nil, fmt.Errorf("%w: %d design statuses vs %d designs", ErrCheckpointMismatch, len(status), nDesigns)
	}
	return status, nil
}
