package sweep

import (
	"fmt"
	"math"
)

// Mode selects how a sweep explores the design space.
type Mode int

const (
	// ModeExhaustive evaluates every design the space enumerates — the
	// classic dense sweep.
	ModeExhaustive Mode = iota
	// ModeAdaptive evaluates a coarse lattice over the space's bounding
	// box, then repeatedly subdivides only the cells whose carbon lower
	// bounds could still touch the Pareto frontier, until no cell survives
	// or the round budget runs out. See the package documentation.
	ModeAdaptive
)

// String names the mode as the CLI spells it.
func (m Mode) String() string {
	switch m {
	case ModeExhaustive:
		return "exhaustive"
	case ModeAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a CLI mode label.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "exhaustive":
		return ModeExhaustive, nil
	case "adaptive":
		return ModeAdaptive, nil
	default:
		return 0, fmt.Errorf("sweep: unknown mode %q (want exhaustive or adaptive)", s)
	}
}

// Plan is the single description of WHAT a sweep evaluates: the exploration
// mode, this process's shard of it, and the adaptive refinement knobs. It
// travels through sweep.Run and the coordinator unchanged, so every worker
// topology derives the identical work-list from the identical plan.
//
// The zero value is a full-space exhaustive sweep.
type Plan struct {
	// Mode selects exhaustive or adaptive exploration.
	Mode Mode
	// Shard, when non-zero, restricts the run to its contiguous i/N slice
	// of the work-list (the full enumeration in exhaustive mode, the
	// current round's lattice points in adaptive mode; Shard.Bounds over
	// the full list). The checkpoint still covers the whole work-list —
	// designs outside the slice stay pending — so any set of shard
	// checkpoints over the same sweep folds with MergeCheckpoints into the
	// single-process result. The space hash is of the FULL work-list, so
	// shards of the same sweep agree on it and mismatched shards are
	// rejected on resume and merge.
	Shard Shard

	// Tolerance is the adaptive mode's relative pruning slack: a cell is
	// discarded when some frontier point comes within Tolerance of the
	// frontier's extent of dominating the cell's best possible corner.
	// Larger values prune harder and finish earlier at the price of a
	// correspondingly looser frontier. Must be in [0, 1); the zero value
	// means the default of 0.01.
	Tolerance float64
	// MaxRounds bounds the number of subdivision rounds after the coarse
	// pass (default 3). Refinement also stops early when no cell survives
	// pruning.
	MaxRounds int
	// CoarsePointsPerDim is the number of lattice points per free axis in
	// the round-0 coarse pass (default 5, minimum 2).
	CoarsePointsPerDim int
}

// DefaultTolerance, DefaultMaxRounds, and DefaultCoarsePointsPerDim are the
// adaptive-mode defaults a zero Plan resolves to.
const (
	DefaultTolerance          = 0.01
	DefaultMaxRounds          = 3
	DefaultCoarsePointsPerDim = 5
)

// Normalized validates the plan and fills the adaptive defaults in — the
// same normalization sweep.Run applies internally. Exported for layers (the
// coordinator, the CLI) that need to validate a plan before building any
// work.
func (p Plan) Normalized() (Plan, error) { return p.withDefaults() }

// withDefaults validates the plan and fills adaptive defaults in.
func (p Plan) withDefaults() (Plan, error) {
	if p.Mode != ModeExhaustive && p.Mode != ModeAdaptive {
		return Plan{}, fmt.Errorf("sweep: unknown plan mode %d", int(p.Mode))
	}
	if !p.Shard.IsZero() {
		if err := p.Shard.validate(); err != nil {
			return Plan{}, err
		}
	}
	if p.Mode == ModeExhaustive {
		// Silently ignoring adaptive knobs under the exhaustive mode would
		// hide a forgotten Mode; reject the combination instead.
		if p.Tolerance != 0 || p.MaxRounds != 0 || p.CoarsePointsPerDim != 0 {
			return Plan{}, fmt.Errorf("sweep: Tolerance/MaxRounds/CoarsePointsPerDim require ModeAdaptive")
		}
		return p, nil
	}
	if math.IsNaN(p.Tolerance) || math.IsInf(p.Tolerance, 0) || p.Tolerance < 0 || p.Tolerance >= 1 {
		return Plan{}, fmt.Errorf("sweep: tolerance %v out of [0, 1)", p.Tolerance)
	}
	if p.Tolerance == 0 {
		p.Tolerance = DefaultTolerance
	}
	switch {
	case p.MaxRounds == 0:
		p.MaxRounds = DefaultMaxRounds
	case p.MaxRounds < 0:
		return Plan{}, fmt.Errorf("sweep: negative MaxRounds %d", p.MaxRounds)
	}
	switch {
	case p.CoarsePointsPerDim == 0:
		p.CoarsePointsPerDim = DefaultCoarsePointsPerDim
	case p.CoarsePointsPerDim < 2:
		return Plan{}, fmt.Errorf("sweep: CoarsePointsPerDim %d invalid: need 0 (default) or at least 2", p.CoarsePointsPerDim)
	}
	return p, nil
}
