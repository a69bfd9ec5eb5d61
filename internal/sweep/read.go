package sweep

import (
	"fmt"

	"carbonexplorer/internal/explorer"
)

// Checkpoint is the decoded, validated content of a sweep checkpoint file —
// the read-only view a serving layer builds its indexes from. It carries the
// precomputed fold results (optimum and Pareto frontier) plus the progress
// accounting, and none of the engine's mutable state: a Checkpoint cannot be
// resumed or saved, only read.
type Checkpoint struct {
	// Path is the file the checkpoint was read from.
	Path string
	// SpaceHash fingerprints the sweep (site, strategy, inputs, and every
	// design); see SpaceHash.
	SpaceHash string
	// Site is the swept site's short identifier (e.g. "UT").
	Site string
	// Strategy is the swept strategy.
	Strategy explorer.Strategy
	// Designs is the number of designs in the full space.
	Designs int
	// Shard is the slice the file was written under; the zero Shard means
	// the file covers the whole space (an unsharded or merged checkpoint).
	Shard Shard
	// Done, Pending, FailedOnce, and FailedPerm count the per-design
	// statuses over the full space.
	Done, Pending, FailedOnce, FailedPerm int
	// Best is the running carbon optimum, or nil if no design has been
	// folded yet. Its BatterySoC trace is empty (the streaming path drops
	// per-hour traces).
	Best *explorer.Outcome
	// Frontier is the running Pareto frontier in the (operational,
	// embodied) plane, sorted by increasing embodied carbon.
	Frontier []explorer.Outcome
	// Mode is "adaptive" for version-3 refinement checkpoints, "" for
	// exhaustive ones.
	Mode string
	// Round is the refinement round the checkpoint belongs to (adaptive
	// checkpoints only; 0 is the coarse pass).
	Round int
	// Converged reports a finished adaptive refinement: the file is the
	// final published result, not one round's working state.
	Converged bool
}

// Complete reports whether the sweep has no work left: every design is done
// or permanently failed.
func (c *Checkpoint) Complete() bool { return c.Pending == 0 && c.FailedOnce == 0 }

// ReadCheckpoint loads a checkpoint file for inspection or serving, without
// any resume semantics: no space re-enumeration, no status mutation, no
// engine state. It validates the schema version and the status encoding
// exactly like a resume would, so a file ReadCheckpoint accepts is one the
// engine would accept too.
//
// The returned frontier is sorted by increasing embodied carbon and, when a
// best outcome exists, is guaranteed to contain a point with the optimum's
// coordinates — the invariant read-optimized indexes (internal/serve) rely
// on to answer constraint queries from the frontier alone.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	ck, err := loadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	runs, n, err := ck.statusRuns()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	shard, err := ck.shard()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := &Checkpoint{
		Path:      path,
		SpaceHash: ck.SpaceHash,
		Site:      ck.Site,
		Strategy:  explorer.Strategy(ck.Strategy),
		Designs:   n,
		Shard:     shard,
		Mode:      ck.Mode,
		Round:     ck.Round,
		Converged: ck.Converged,
	}
	out.Done, out.Pending, out.FailedOnce, out.FailedPerm = runCounts(runs, 0, n)

	// Fold the stored best into the frontier set: the total-carbon optimum
	// is never dominated in the (operational, embodied) plane — a dominator
	// would have strictly lower total — so this is a no-op for any
	// engine-written file, and it repairs hand-damaged ones into a frontier
	// that still answers optimum queries correctly.
	var ps explorer.ParetoSet
	if ck.Best != nil {
		b := ck.Best.outcome()
		out.Best = &b
		ps.Add(b)
	}
	for _, o := range ck.Frontier {
		ps.Add(o.outcome())
	}
	out.Frontier = ps.Frontier()
	return out, nil
}
