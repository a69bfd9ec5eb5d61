package sweep

import (
	"fmt"
	"sort"

	"carbonexplorer/internal/explorer"
)

// ShardProgress summarizes one input checkpoint of a merge.
type ShardProgress struct {
	// Path is the checkpoint file.
	Path string
	// Shard is the slice label the file was written under; the zero Shard
	// means the file covers the whole space (an unsharded or merged
	// checkpoint).
	Shard Shard
	// Start and End delimit the shard's design-index slice ([0, Total) for
	// unsharded files).
	Start, End int
	// Done, Pending, FailedOnce, and FailedPerm count the design statuses
	// inside [Start, End).
	Done, Pending, FailedOnce, FailedPerm int
	// SpaceHash is the sweep fingerprint the checkpoint was written under,
	// so callers can validate a file against an expected sweep without
	// reloading it.
	SpaceHash string
}

// MergeReport accounts for a checkpoint merge: per-input shard progress and
// the merged space-wide totals.
type MergeReport struct {
	// Inputs describes each source checkpoint, in ascending slice order.
	Inputs []ShardProgress
	// Total is the number of designs in the full space.
	Total int
	// Done, Pending, FailedOnce, and FailedPerm count the merged statuses
	// over the full space. Pending > 0 means the merged checkpoint still
	// has work; resume it (sharded or not) to finish.
	Done, Pending, FailedOnce, FailedPerm int
}

// Complete reports whether the merged sweep has no work left: every design
// is done or permanently failed.
func (r MergeReport) Complete() bool { return r.Pending == 0 && r.FailedOnce == 0 }

// statusCounts tallies one slice of a status string.
func statusCounts(status []byte, lo, hi int) (done, pending, failedOnce, failedPerm int) {
	for _, s := range status[lo:hi] {
		switch s {
		case statusDone:
			done++
		case statusPending:
			pending++
		case statusFailedOnce:
			failedOnce++
		case statusFailedPerm:
			failedPerm++
		}
	}
	return
}

// Progress loads one checkpoint file and reports the per-status design
// counts inside its shard slice, without merging or modifying anything —
// the read-only inspection the network coordinator uses to verify a lease's
// uploaded checkpoint really finished its slice before marking it done.
func Progress(path string) (ShardProgress, error) {
	ck, err := loadCheckpoint(path)
	if err != nil {
		return ShardProgress{}, err
	}
	status, err := ck.statusBytes()
	if err != nil {
		return ShardProgress{}, fmt.Errorf("%s: %w", path, err)
	}
	shard, err := ck.shard()
	if err != nil {
		return ShardProgress{}, fmt.Errorf("%s: %w", path, err)
	}
	lo, hi := shard.Bounds(len(status))
	p := ShardProgress{Path: path, Shard: shard, Start: lo, End: hi, SpaceHash: ck.SpaceHash}
	p.Done, p.Pending, p.FailedOnce, p.FailedPerm = statusCounts(status, lo, hi)
	return p, nil
}

// ProgressWithin is Progress restricted to the given shard's slice,
// regardless of the shard label the file itself carries — how the network
// coordinator asks "does this (merged, hence unsharded) per-lease
// checkpoint finish lease i/L's designs?". The file must cover at least the
// slice; a shorter status string is a mismatch.
func ProgressWithin(path string, sh Shard) (ShardProgress, error) {
	ck, err := loadCheckpoint(path)
	if err != nil {
		return ShardProgress{}, err
	}
	status, err := ck.statusBytes()
	if err != nil {
		return ShardProgress{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := sh.validate(); !sh.IsZero() && err != nil {
		return ShardProgress{}, err
	}
	lo, hi := sh.Bounds(len(status))
	p := ShardProgress{Path: path, Shard: sh, Start: lo, End: hi, SpaceHash: ck.SpaceHash}
	p.Done, p.Pending, p.FailedOnce, p.FailedPerm = statusCounts(status, lo, hi)
	return p, nil
}

// mergeInput is one loaded, validated source checkpoint.
type mergeInput struct {
	path   string
	ck     *checkpointFile
	shard  Shard
	status []byte
	start  int
	end    int
}

// MergeCheckpoints folds any set of shard checkpoint files — complete or
// partial, including several attempts of the same shard — into one merged
// checkpoint at dst, and reports per-shard and merged progress.
//
// Every source must carry the same space hash (same site, strategy, space,
// and inputs); a file from a different sweep is rejected with
// ErrCheckpointMismatch, never silently mixed. The merge is the associative
// fold the sharded design rests on: per-design statuses join (done beats
// failed beats pending), the optimum is the min over shard optima, and the
// Pareto frontier is explorer.ParetoSet.Add over all shard frontiers — so
// merging shard checkpoints of a partitioned space reproduces exactly the
// fold state of a single-process sweep over the designs those shards
// completed. Sources are folded in ascending slice order, which preserves
// the single-process enumeration-order tie-breaking for exactly tied
// optima and duplicate frontier coordinates.
//
// The merged checkpoint is unsharded: Run with Options.Checkpoint.Resume accepts it
// directly, either to finish remaining designs in one process or re-split
// across a new shard count. Merging is idempotent — a merged file can be
// merged again with late-arriving shards.
func MergeCheckpoints(dst string, srcs ...string) (MergeReport, error) {
	if len(srcs) == 0 {
		return MergeReport{}, fmt.Errorf("sweep: merge: no checkpoint files given")
	}
	inputs := make([]mergeInput, 0, len(srcs))
	for _, path := range srcs {
		ck, err := loadCheckpoint(path)
		if err != nil {
			return MergeReport{}, err
		}
		status, err := ck.statusBytes()
		if err != nil {
			return MergeReport{}, fmt.Errorf("%s: %w", path, err)
		}
		shard, err := ck.shard()
		if err != nil {
			return MergeReport{}, fmt.Errorf("%s: %w", path, err)
		}
		lo, hi := shard.Bounds(len(status))
		inputs = append(inputs, mergeInput{path: path, ck: ck, shard: shard, status: status, start: lo, end: hi})
	}

	ref := inputs[0]
	for _, in := range inputs[1:] {
		if in.ck.SpaceHash != ref.ck.SpaceHash {
			return MergeReport{}, fmt.Errorf("%w: %s has space hash %s, %s has %s",
				ErrCheckpointMismatch, in.path, in.ck.SpaceHash, ref.path, ref.ck.SpaceHash)
		}
		if len(in.status) != len(ref.status) {
			return MergeReport{}, fmt.Errorf("%w: %s covers %d designs, %s covers %d",
				ErrCheckpointMismatch, in.path, len(in.status), ref.path, len(ref.status))
		}
	}

	// Fold in ascending slice order so enumeration-order tie-breaking
	// matches a single-process sweep; the sort is stable so repeated
	// attempts of the same shard keep their given order.
	sort.SliceStable(inputs, func(i, j int) bool {
		if inputs[i].start != inputs[j].start {
			return inputs[i].start < inputs[j].start
		}
		return inputs[i].end < inputs[j].end
	})

	n := len(ref.status)
	merged := make([]byte, n)
	for i := range merged {
		merged[i] = statusPending
	}
	var best *savedOutcome
	var frontier explorer.ParetoSet
	// First-seen failure records, kept in fold order (not a map: iterating a
	// map below would make the merged file's contents order-dependent on the
	// runtime's map seed, breaking byte-stable merges).
	var failures []savedFailure
	seenFailure := make(map[explorer.Design]bool)
	retried, recovered := 0, 0

	rep := MergeReport{Total: n}
	for _, in := range inputs {
		for i, s := range in.status {
			merged[i] = joinStatus(merged[i], s)
		}
		if in.ck.Best != nil {
			o := in.ck.Best.outcome()
			if best == nil || explorer.Better(o, best.outcome()) {
				b := *in.ck.Best
				best = &b
			}
		}
		for _, f := range in.ck.Frontier {
			frontier.Add(f.outcome())
		}
		for _, f := range in.ck.Failures {
			if !seenFailure[f.Design] {
				seenFailure[f.Design] = true
				failures = append(failures, f)
			}
		}
		retried += in.ck.Retried
		recovered += in.ck.Recovered

		p := ShardProgress{Path: in.path, Shard: in.shard, Start: in.start, End: in.end, SpaceHash: in.ck.SpaceHash}
		p.Done, p.Pending, p.FailedOnce, p.FailedPerm = statusCounts(in.status, in.start, in.end)
		rep.Inputs = append(rep.Inputs, p)
	}
	rep.Done, rep.Pending, rep.FailedOnce, rep.FailedPerm = statusCounts(merged, 0, n)

	out := &checkpointFile{
		Version:   checkpointVersion,
		SpaceHash: ref.ck.SpaceHash,
		Site:      ref.ck.Site,
		Strategy:  ref.ck.Strategy,
		Designs:   n,
		Status:    encodeStatusRLE(merged),
		Retried:   retried,
		Recovered: recovered,
		Best:      best,
	}
	if ref.ck.Version == checkpointVersionV3 {
		// Adaptive round checkpoints: the round state is a pure function of
		// the round hash every input was validated against, so copying it
		// from the reference input preserves it for all.
		out.Version = checkpointVersionV3
		out.Mode = ref.ck.Mode
		out.BaseHash = ref.ck.BaseHash
		out.Round = ref.ck.Round
		out.Cells = ref.ck.Cells
		out.Prior = ref.ck.Prior
	}
	for _, o := range frontier.Frontier() {
		out.Frontier = append(out.Frontier, saveOutcome(o))
	}
	// Keep only failure records still telling a live story: a design whose
	// joined status is done was recovered by some shard attempt, so its
	// stale failure record is dropped. Records without an index (version-1
	// files) are kept — a resumed run re-derives relevance from the status
	// string and ignores failure causes for done designs.
	for _, f := range failures {
		if f.Index >= 0 && f.Index < n && merged[f.Index] == statusDone {
			continue
		}
		out.Failures = append(out.Failures, f)
	}
	sortFailures(out.Failures)

	if err := out.save(dst); err != nil {
		return MergeReport{}, err
	}
	return rep, nil
}

// MergeResults folds in-memory Results of shard (or lease) runs over
// disjoint slices of one sweep into the single-process Result. It is the
// in-memory sibling of MergeCheckpoints: the optimum folds with the same
// tie-breaking, the frontier with the same Pareto fold, and failures dedup
// first-seen per design — so folding slice results in ascending slice order
// reproduces exactly the single-process optimum, frontier, and failure
// ordering. Counters sum across inputs and MaxResident is the max;
// OutOfShard is recomputed from the first input's space-wide total so
// designs covered by any input stop counting as out-of-shard. The inputs
// must cover disjoint slices of the same sweep for the counts to be
// meaningful.
func MergeResults(results ...Result) Result {
	var out Result
	if len(results) == 0 {
		return out
	}
	out.Strategy = results[0].Strategy
	first := results[0].Report
	total := first.Evaluated + len(first.Failures) + first.Skipped + first.OutOfShard
	var best *explorer.Outcome
	var frontier explorer.ParetoSet
	seenFailure := make(map[explorer.Design]bool)
	for _, r := range results {
		if r.Report.Evaluated > 0 {
			o := r.Optimal
			if best == nil || explorer.Better(o, *best) {
				best = &o
			}
		}
		for _, f := range r.Frontier {
			frontier.Add(f)
		}
		for _, f := range r.Report.Failures {
			if !seenFailure[f.Design] {
				seenFailure[f.Design] = true
				out.Report.Failures = append(out.Report.Failures, f)
			}
		}
		out.Report.Evaluated += r.Report.Evaluated
		out.Report.Restored += r.Report.Restored
		out.Report.Skipped += r.Report.Skipped
		out.Report.Retried += r.Report.Retried
		out.Report.Recovered += r.Report.Recovered
		if r.Report.MaxResident > out.Report.MaxResident {
			out.Report.MaxResident = r.Report.MaxResident
		}
		out.Resumed = out.Resumed || r.Resumed
		out.Workers = append(out.Workers, r.Workers...)
	}
	if best != nil {
		out.Optimal = *best
	}
	out.Frontier = frontier.Frontier()
	if n := total - out.Report.Evaluated - len(out.Report.Failures) - out.Report.Skipped; n > 0 {
		out.Report.OutOfShard = n
	}
	return out
}

// joinStatus merges two observations of the same design's status across
// shard attempts. More-final states win: done (some attempt evaluated it)
// beats permanently failed beats failed-once beats pending.
func joinStatus(a, b byte) byte {
	rank := func(s byte) int {
		switch s {
		case statusDone:
			return 3
		case statusFailedPerm:
			return 2
		case statusFailedOnce:
			return 1
		default:
			return 0
		}
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// sortFailures orders failure records deterministically so merged
// checkpoints are byte-stable across runs.
func sortFailures(fs []savedFailure) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Design, fs[j].Design
		switch {
		case a.WindMW != b.WindMW: //carbonlint:allow floatcmp exact-bits sort key keeps merged checkpoints byte-stable
			return a.WindMW < b.WindMW
		case a.SolarMW != b.SolarMW: //carbonlint:allow floatcmp exact-bits sort key keeps merged checkpoints byte-stable
			return a.SolarMW < b.SolarMW
		case a.BatteryMWh != b.BatteryMWh: //carbonlint:allow floatcmp exact-bits sort key keeps merged checkpoints byte-stable
			return a.BatteryMWh < b.BatteryMWh
		case a.ExtraCapacityFrac != b.ExtraCapacityFrac: //carbonlint:allow floatcmp exact-bits sort key keeps merged checkpoints byte-stable
			return a.ExtraCapacityFrac < b.ExtraCapacityFrac
		default:
			return fs[i].Error < fs[j].Error
		}
	})
}
