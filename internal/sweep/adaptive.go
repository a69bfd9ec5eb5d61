package sweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"

	"carbonexplorer/internal/explorer"
)

// The adaptive mode (Plan.Mode == ModeAdaptive) replaces the exhaustive
// enumeration with coarse-to-fine refinement: round 0 evaluates a coarse
// lattice over the space's bounding box, and each later round subdivides
// only the cells whose carbon lower bounds (explorer.CellModel) could still
// touch the Pareto frontier, evaluating just the newly created lattice
// points. The work-list of every round is a pure function of (space, plan,
// prior-round frontier), so any worker topology — single process, -shard
// slices, file leases, network leases — derives the identical round
// work-list, fingerprinted by the identical round hash, and converges to
// byte-identical results.

// adaptiveModeLabel is the Mode string version-3 checkpoints carry.
const adaptiveModeLabel = "adaptive"

// AdaptiveProgress reports how far an adaptive sweep's refinement got.
type AdaptiveProgress struct {
	// Round is the last refinement round executed (0 is the coarse pass).
	Round int
	// RoundEvals is the number of successfully evaluated designs per round,
	// in round order, including the (possibly partial) last round.
	RoundEvals []int
	// Cells is the number of cells in the last executed round's work-list.
	Cells int
	// Survivors is the number of cells that survived frontier pruning after
	// the last completed round (0 once refinement has converged).
	Survivors int
	// Converged reports whether refinement finished: no cell survived
	// pruning, or the round budget was spent. A false value means the run
	// stopped mid-refinement (cancelled, or a shard slice waiting for its
	// siblings) and can be resumed.
	Converged bool
	// Tolerance echoes the plan's effective pruning tolerance.
	Tolerance float64
}

// adaptiveMeta is the round context a Job carries when it is one round of an
// adaptive sweep: everything the checkpoint writer needs to stamp version-3
// round state, plus the cumulative fold seeds from prior rounds.
type adaptiveMeta struct {
	baseHash string
	round    int
	cells    []explorer.Cell
	prior    savedPrior

	// seedBest and seedFrontier are the cumulative optimum and frontier of
	// all prior rounds, folded in before any evaluation (and before any
	// restore — a checkpoint written by a seeded run already includes them,
	// and re-folding is idempotent).
	seedBest     *explorer.Outcome
	seedFrontier []explorer.Outcome
}

// stamp writes the version-3 round state onto a checkpoint file.
func (m *adaptiveMeta) stamp(ck *checkpointFile) {
	ck.Version = checkpointVersionV3
	ck.Mode = adaptiveModeLabel
	ck.BaseHash = m.baseHash
	ck.Round = m.round
	ck.Cells = savedCells(m.cells)
	if len(m.prior.Evals) > 0 {
		p := m.prior
		ck.Prior = &p
	}
}

func savedCells(cells []explorer.Cell) []savedCell {
	out := make([]savedCell, len(cells))
	for i, c := range cells {
		out[i] = savedCell{Idx: c.Idx}
	}
	return out
}

func cellsFromSaved(saved []savedCell) []explorer.Cell {
	out := make([]explorer.Cell, len(saved))
	for i, s := range saved {
		out[i] = explorer.Cell{Idx: s.Idx}
	}
	return out
}

// adaptiveBaseHash fingerprints the refinement as a whole: the site, the
// strategy, the input fingerprint, the bounding box geometry, and the plan
// knobs that shape every round. Two processes agree on every round's
// work-list exactly when their base hashes agree.
func adaptiveBaseHash(in *explorer.Inputs, strategy explorer.Strategy, g explorer.CellGrid, plan Plan) string {
	h := fnv.New64a()
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
	for a := 0; a < explorer.NumAxes; a++ {
		write(g.Lo[a])
		write(g.Hi[a])
		free := uint64(0)
		if g.Free[a] {
			free = 1
		}
		writeUint64(free)
	}
	write(g.DoD)
	write(g.FlexibleRatio)
	writeUint64(uint64(g.Coarse))
	write(plan.Tolerance)
	writeUint64(uint64(plan.MaxRounds))
	return fmt.Sprintf("%016x", h.Sum64())
}

// adaptiveRoundHash fingerprints one round's concrete work-list under the
// refinement's base hash. It plays the SpaceHash role for the round: resume,
// merge, and coordination handshakes validate against it unchanged.
func adaptiveRoundHash(base string, round int, cells []explorer.Cell, designs []explorer.Design) string {
	h := fnv.New64a()
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
	h.Write([]byte(base))
	writeUint64(uint64(round))
	writeUint64(uint64(len(cells)))
	for _, c := range cells {
		for a := 0; a < explorer.NumAxes; a++ {
			writeUint64(uint64(int64(c.Idx[a])))
		}
	}
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

// AdaptiveEval executes one refinement round's job and returns its result.
// The single-process driver runs the job directly; the coordinator fans the
// round out across workers. The returned Result must be cumulative (the job
// seeds guarantee this) and complete exactly when Report.Skipped and
// Report.OutOfShard are both zero.
type AdaptiveEval func(ctx context.Context, job *Job, round int) (Result, error)

// runAdaptiveLocal is the single-process adaptive driver: each round is one
// (possibly sharded) Job.run against the caller's checkpoint path.
func runAdaptiveLocal(ctx context.Context, in *explorer.Inputs, space explorer.Space, strategy explorer.Strategy, opts Options) (Result, error) {
	firstRound := true
	eval := func(ctx context.Context, job *Job, round int) (Result, error) {
		ro := opts
		// Only the first executed round may restore the checkpoint file:
		// later rounds carry a different round hash than the file on disk
		// (which the first periodic write then overwrites).
		ro.Checkpoint.Resume = opts.Checkpoint.Resume && firstRound
		firstRound = false
		return job.run(ctx, in, ro)
	}
	return RunAdaptiveRounds(ctx, in, space, strategy, opts, eval)
}

// RunAdaptiveRounds drives an adaptive sweep's refinement loop over any
// round executor: derive the round work-list, evaluate it through eval,
// prune cells against the cumulative frontier, subdivide the survivors, and
// repeat until no cell survives or the plan's round budget is spent. The
// final converged checkpoint is written by this driver itself — as a pure
// function of the deterministic round results — so every worker topology
// publishes byte-identical final state.
//
// It is exported for the coordinator (internal/coordinator), which supplies
// an eval that fans each round out across workers or a lease fleet; all
// other callers reach it through Run with Plan.Mode == ModeAdaptive.
func RunAdaptiveRounds(ctx context.Context, in *explorer.Inputs, space explorer.Space, strategy explorer.Strategy, opts Options, eval AdaptiveEval) (Result, error) {
	opts, err := opts.resolve()
	if err != nil {
		return Result{}, err
	}
	plan := opts.Plan
	if plan.Mode != ModeAdaptive {
		return Result{}, fmt.Errorf("sweep: RunAdaptiveRounds needs Plan.Mode == ModeAdaptive")
	}
	g, err := explorer.NewCellGrid(space, strategy, in.AvgDemandMW(), plan.CoarsePointsPerDim)
	if err != nil {
		return Result{}, err
	}
	model := explorer.NewCellModel(in, g)
	base := adaptiveBaseHash(in, strategy, g, plan)

	round := 0
	cells := g.CoarseCells()
	var prior savedPrior
	// resumedAny and restoredSoFar carry resume accounting across rounds:
	// the per-round Result only knows about its own restore, but the
	// refinement-level Result must report everything that came from a
	// checkpoint rather than a fresh evaluation.
	resumedAny := false
	restoredSoFar := 0

	// Fast-forward: a version-3 checkpoint at the final path tells us which
	// round the interrupted refinement had reached (its mid-round progress
	// is then restored by the round's own resume) — or that the refinement
	// already converged.
	finalPath := opts.Checkpoint.Path
	if opts.Checkpoint.Resume && finalPath != "" {
		ck, err := loadCheckpoint(finalPath)
		switch {
		case err != nil && isNotExist(err):
			// Fresh refinement.
		case err != nil:
			return Result{}, err
		case ck.Version != checkpointVersionV3:
			return Result{}, fmt.Errorf("%w: checkpoint at %s is not an adaptive (version 3) checkpoint",
				ErrCheckpointMismatch, finalPath)
		case ck.BaseHash != base:
			return Result{}, fmt.Errorf("%w: refinement base hash %s vs %s",
				ErrCheckpointMismatch, ck.BaseHash, base)
		default:
			round = ck.Round
			cells = cellsFromSaved(ck.Cells)
			if ck.Prior != nil {
				prior = *ck.Prior
			}
			// Every prior round's evaluation came out of the file, not out
			// of this process.
			resumedAny = true
			for _, e := range prior.Evals {
				restoredSoFar += e
			}
			if ck.Converged {
				res, err := resultFromConverged(ck, strategy, plan)
				if err != nil {
					return Result{}, err
				}
				return res, nil
			}
		}
	}

	var seedBest *explorer.Outcome
	var seedFrontier []explorer.Outcome
	// One memo for every round: a round's lattice points are new designs,
	// but many of them simulate a year an earlier round already did.
	memo := newYearMemo(in)
	for {
		worklist := g.RoundPoints(cells, round)
		if len(worklist) == 0 {
			// Every axis pinned (or no cells): nothing to refine further.
			return Result{}, fmt.Errorf("sweep: adaptive round %d has no lattice points — space has no free dimensions to refine", round)
		}
		job := &Job{
			Strategy: strategy,
			Designs:  worklist,
			hash:     adaptiveRoundHash(base, round, cells, worklist),
			twins:    in.Twins(worklist),
			memo:     memo,
			meta: &adaptiveMeta{
				baseHash:     base,
				round:        round,
				cells:        cells,
				prior:        prior,
				seedBest:     seedBest,
				seedFrontier: seedFrontier,
			},
		}
		res, evalErr := eval(ctx, job, round)
		roundEvaluated := res.Report.Evaluated
		roundRestored := res.Report.Restored
		roundRetried := res.Report.Retried
		roundRecovered := res.Report.Recovered
		roundFailures := res.Report.Failures
		progress := &AdaptiveProgress{
			Round:      round,
			RoundEvals: appendInts(prior.Evals, roundEvaluated),
			Cells:      len(cells),
			Tolerance:  plan.Tolerance,
		}
		res.Adaptive = progress
		addPriorAccounting(&res, prior)
		res.Report.Restored += restoredSoFar
		res.Resumed = res.Resumed || resumedAny
		if roundEvaluated == 0 && roundRestored == 0 && seedBest != nil {
			// The round folded nothing (interrupted before any worker
			// checkpointed): surface the prior rounds' cumulative optimum
			// and frontier instead of an empty partial result.
			res.Optimal = *seedBest
			res.Frontier = seedFrontier
		}
		if evalErr != nil {
			return res, evalErr
		}
		if res.Report.Skipped > 0 || res.Report.OutOfShard > 0 {
			// A shard slice finished its part of the round; siblings (and a
			// merge) must complete it before refinement can advance.
			return res, nil
		}

		// Round complete: prune against the cumulative frontier and decide
		// whether to subdivide. The slacks are absolute fractions of the
		// frontier's extent, recomputed per round — still a pure function
		// of the prior-round frontier.
		opSlack, emSlack := frontierSlack(res.Frontier, plan.Tolerance)
		survivors := cells[:0:0]
		for _, c := range cells {
			opLB, emLB := model.Bounds(c, round)
			if explorer.Reachable(opLB, emLB, res.Frontier, opSlack, emSlack) {
				survivors = append(survivors, c)
			}
		}
		progress.Survivors = len(survivors)
		if len(survivors) == 0 || round >= plan.MaxRounds {
			progress.Converged = true
			if finalPath != "" {
				if err := writeConvergedCheckpoint(finalPath, in, job, res, prior); err != nil {
					return res, err
				}
			}
			return res, nil
		}

		// Advance: the completed round's accounting moves into the prior
		// block, its frontier seeds the next round.
		prior.Evals = append(prior.Evals, roundEvaluated)
		prior.Retried += roundRetried
		prior.Recovered += roundRecovered
		resumedAny = resumedAny || roundRestored > 0
		restoredSoFar += roundRestored
		prior.Failures = append(prior.Failures, failuresToSaved(roundFailures)...)
		best := res.Optimal
		seedBest = &best
		seedFrontier = res.Frontier
		cells = g.SubdivideAll(survivors)
		round++
	}
}

// appendInts returns a copy of prior with v appended (never aliasing prior's
// backing array, which outlives the call).
func appendInts(prior []int, v int) []int {
	out := make([]int, 0, len(prior)+1)
	out = append(out, prior...)
	return append(out, v)
}

// addPriorAccounting folds completed prior rounds into a round Result so
// callers see cumulative refinement totals.
func addPriorAccounting(res *Result, prior savedPrior) {
	for _, e := range prior.Evals {
		res.Report.Evaluated += e
	}
	res.Report.Retried += prior.Retried
	res.Report.Recovered += prior.Recovered
	if len(prior.Failures) > 0 {
		merged := make([]explorer.DesignError, 0, len(prior.Failures)+len(res.Report.Failures))
		for _, f := range prior.Failures {
			merged = append(merged, explorer.DesignError{
				Design: f.Design,
				Err:    fmt.Errorf("sweep: prior-round failure: %s", f.Error),
			})
		}
		res.Report.Failures = append(merged, res.Report.Failures...)
	}
}

// frontierSlack derives the absolute pruning slacks from the frontier's
// extent. Absolute slack matters: large parts of a renewable-rich space have
// an operational lower bound of exactly zero, where a multiplicative slack
// would vanish and nothing could ever be pruned on that coordinate.
func frontierSlack(frontier []explorer.Outcome, tol float64) (opSlack, emSlack float64) {
	var maxOp, maxEm float64
	for _, q := range frontier {
		if float64(q.Operational) > maxOp {
			maxOp = float64(q.Operational)
		}
		if float64(q.Embodied) > maxEm {
			maxEm = float64(q.Embodied)
		}
	}
	return tol * maxOp, tol * maxEm
}

func failuresToSaved(failures []explorer.DesignError) []savedFailure {
	if len(failures) == 0 {
		return nil
	}
	out := make([]savedFailure, len(failures))
	for i, f := range failures {
		out[i] = savedFailure{Design: f.Design, Index: -1, Error: f.Err.Error(), Permanent: true}
	}
	return out
}

// writeConvergedCheckpoint publishes the refinement's final state. It is
// constructed here, from the deterministic round result, rather than by the
// topology-specific round writers — which is what makes the final file
// byte-identical whether the rounds ran in one process, across -shard
// slices, or under a file or network lease fleet. The final file is always
// unsharded and marked converged.
func writeConvergedCheckpoint(path string, in *explorer.Inputs, job *Job, res Result, prior savedPrior) error {
	m := job.meta
	status := make([]byte, len(job.Designs))
	for i := range status {
		status[i] = statusDone
	}
	index := make(map[explorer.Design]int, len(job.Designs))
	for i, d := range job.Designs {
		index[d] = i
	}
	ck := &checkpointFile{
		Version:   checkpointVersionV3,
		SpaceHash: job.hash,
		Site:      in.Site.ID,
		Strategy:  int(job.Strategy),
		Designs:   len(job.Designs),
		Retried:   res.Report.Retried - prior.Retried,
		Recovered: res.Report.Recovered - prior.Recovered,
		Mode:      adaptiveModeLabel,
		BaseHash:  m.baseHash,
		Round:     m.round,
		Cells:     savedCells(m.cells),
		Converged: true,
	}
	if len(prior.Evals) > 0 {
		p := prior
		ck.Prior = &p
	}
	// Failures beyond the prior rounds' belong to the final round; map them
	// onto the round work-list (walking the deterministic failure slice, not
	// a map, keeps the file byte-stable).
	for _, f := range res.Report.Failures {
		i, ok := index[f.Design]
		if !ok {
			continue // a prior-round failure: recorded in ck.Prior
		}
		status[i] = statusFailedPerm
		ck.Failures = append(ck.Failures, savedFailure{
			Design:    f.Design,
			Index:     i,
			Error:     f.Err.Error(),
			Permanent: true,
		})
	}
	sortFailures(ck.Failures)
	ck.Status = encodeStatusRLE(status)
	if res.Report.Evaluated > 0 {
		so := saveOutcome(res.Optimal)
		ck.Best = &so
	}
	for _, o := range res.Frontier {
		ck.Frontier = append(ck.Frontier, saveOutcome(o))
	}
	return ck.save(path)
}

// resultFromConverged reconstructs the adaptive Result recorded by a
// converged final checkpoint, so re-running a finished refinement returns
// the answer without evaluating anything.
func resultFromConverged(ck *checkpointFile, strategy explorer.Strategy, plan Plan) (Result, error) {
	runs, n, err := ck.statusRuns()
	if err != nil {
		return Result{}, err
	}
	res := Result{Strategy: strategy, Resumed: true}
	roundEvals, _, _, _ := runCounts(runs, 0, n)
	res.Report.Evaluated = roundEvals
	res.Report.Restored = roundEvals
	res.Report.Retried = ck.Retried
	res.Report.Recovered = ck.Recovered
	var prior savedPrior
	if ck.Prior != nil {
		prior = *ck.Prior
	}
	for _, f := range ck.Failures {
		res.Report.Failures = append(res.Report.Failures, explorer.DesignError{
			Design: f.Design,
			Err:    fmt.Errorf("sweep: restored failure: %s", f.Error),
		})
	}
	if ck.Best != nil {
		res.Optimal = ck.Best.outcome()
	}
	for _, o := range ck.Frontier {
		res.Frontier = append(res.Frontier, o.outcome())
	}
	res.Adaptive = &AdaptiveProgress{
		Round:      ck.Round,
		RoundEvals: appendInts(prior.Evals, roundEvals),
		Cells:      len(ck.Cells),
		Converged:  true,
		Tolerance:  plan.Tolerance,
	}
	addPriorAccounting(&res, prior)
	// Nothing was evaluated by this process: the whole refinement was
	// reconstructed from the converged file.
	res.Report.Restored = res.Report.Evaluated
	return res, nil
}
