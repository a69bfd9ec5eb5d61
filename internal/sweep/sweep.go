package sweep

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"strconv"
	"time"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/timeseries"
)

// CheckpointOptions configures checkpoint persistence for a sweep. The
// zero value disables checkpointing.
type CheckpointOptions struct {
	// Path, when non-empty, persists a versioned JSON checkpoint there
	// after every Every evaluated designs, on cancellation, and on
	// completion. See the package documentation for the format.
	Path string
	// Every is the number of evaluated designs between periodic checkpoint
	// writes (default 256). Checkpoints also always flush at batch
	// boundaries, on cancellation, and at the end of the sweep.
	Every int
	// Resume, when set, loads Path before sweeping and skips every design
	// it records as done — their contribution to the optimum and frontier
	// is restored from the file instead of re-evaluated. A missing file
	// starts a fresh sweep; a file from a different sweep (site, space,
	// strategy, or inputs changed) fails with ErrCheckpointMismatch.
	Resume bool
}

// NoRetries disables the retry pass entirely: a single failure is final.
// See Options.Retries.
const NoRetries = -1

// Options configures a streaming sweep. The zero value is a sensible
// default: bounded batches, retry-once for failed designs, no
// checkpointing.
type Options struct {
	// BatchSize is the number of designs evaluated and folded per batch —
	// the peak number of Outcomes the engine holds at once (default 64).
	// Larger batches increase parallel occupancy slightly; memory stays
	// O(BatchSize + frontier), independent of the grid size.
	BatchSize int
	// Checkpoint configures checkpoint persistence; the zero value runs
	// without one.
	Checkpoint CheckpointOptions
	// Retries is how many times a failed design is re-evaluated before it
	// is permanently excluded from the optimum. The zero value means the
	// default of one retry — transient faults (a flaky data backend, an
	// injected chaos error) should not permanently discard a grid point.
	// NoRetries (or any negative value) disables retries so a single
	// failure is final.
	Retries int
	// RetryBackoff is the base delay before each retry pass: attempt k
	// waits base<<(k-1) with deterministic jitter (seeded from the space
	// hash, see BackoffDelay) before re-evaluating, so a transiently
	// failing backend gets breathing room instead of an immediate
	// re-hammering — and an interrupted-and-resumed sweep re-derives the
	// exact same schedule. The zero value means the default of 25ms; a
	// negative value restores immediate retries. Delays cap at 100× the
	// base.
	RetryBackoff time.Duration
	// Plan describes WHAT the sweep evaluates: the exploration mode
	// (exhaustive or adaptive), the shard slice, and the adaptive knobs.
	// The zero value is a full-space exhaustive sweep, so existing callers
	// are unaffected.
	Plan Plan
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.Checkpoint.Every <= 0 {
		o.Checkpoint.Every = 256
	}
	switch {
	case o.Retries == 0:
		o.Retries = 1
	case o.Retries < 0:
		o.Retries = 0
	}
	switch {
	case o.RetryBackoff == 0:
		o.RetryBackoff = 25 * time.Millisecond
	case o.RetryBackoff < 0:
		o.RetryBackoff = 0
	}
	return o
}

// Report accounts for every design of a streaming sweep.
type Report struct {
	// Evaluated is the number of designs evaluated successfully, including
	// designs restored from a checkpoint and designs that took the outcome
	// of a twin (explorer.Inputs.Twins) without a simulation: one already
	// done, or one evaluated in the same batch.
	Evaluated int
	// Restored is how many of Evaluated were restored from the checkpoint
	// rather than re-evaluated in this run.
	Restored int
	// Skipped is the number of in-shard designs never evaluated because the
	// sweep was cancelled first. Resuming from the checkpoint picks them
	// up.
	Skipped int
	// OutOfShard is the number of designs outside this run's shard slice
	// that no prior checkpoint accounted for. Other shards (or a resume of
	// the merged checkpoint) evaluate them; zero for unsharded runs.
	OutOfShard int
	// Retried is the number of design re-evaluations performed by the
	// retry pass (accumulated across resumed runs).
	Retried int
	// Recovered is how many retried designs succeeded on their second
	// attempt and were folded into the optimum after all.
	Recovered int
	// Failures lists every design currently in a failed state with its
	// latest error. After a completed sweep with retries enabled these are
	// all permanent (failed twice); after an interrupted sweep the list may
	// include designs still eligible for retry on resume.
	Failures []explorer.DesignError
	// MaxResident is the peak number of evaluated Outcomes the engine held
	// in memory at any moment — the bounded-memory witness. It never
	// exceeds the batch size, no matter how dense the design grid is.
	MaxResident int
}

// Result is the outcome of a streaming sweep.
type Result struct {
	// Strategy echoes the swept strategy.
	Strategy explorer.Strategy
	// Optimal is the outcome with minimum total carbon over all evaluated
	// designs; ties break toward higher coverage, exactly as in
	// explorer.Search. Its BatterySoC trace is empty: the streaming path
	// drops per-hour traces (re-Evaluate the design to recover one).
	Optimal explorer.Outcome
	// Frontier is the Pareto frontier in the (operational, embodied) plane
	// over all evaluated designs, sorted by increasing embodied carbon —
	// identical to explorer.ParetoFrontier over a materialized sweep.
	Frontier []explorer.Outcome
	// Report accounts for every design: evaluated, restored, failed,
	// retried, or skipped.
	Report Report
	// Resumed reports whether any prior progress was restored from a
	// checkpoint file.
	Resumed bool
	// Workers breaks the sweep down per coordinated worker, one entry per
	// worker in worker order. Plain Run leaves it empty; the coordinator
	// (internal/coordinator) fills it in.
	Workers []WorkerProgress
	// Adaptive reports the refinement progress of an adaptive sweep
	// (Plan.Mode == ModeAdaptive); nil for exhaustive sweeps.
	Adaptive *AdaptiveProgress
}

// WorkerProgress summarizes one coordinated worker's contribution to a
// sweep: how many leases it completed, how many of those it stole from an
// expired owner, and how many designs it touched. The coordinator attaches
// one entry per worker to Result.Workers.
type WorkerProgress struct {
	// Worker is the worker's owner label, as written into lease files.
	Worker string `json:"worker"`
	// Leases is the number of leases the worker completed.
	Leases int `json:"leases"`
	// Stolen is how many of those leases were reclaimed from an owner
	// whose heartbeat had expired.
	Stolen int `json:"stolen"`
	// Evaluated is the number of designs the worker evaluated successfully
	// (excluding designs restored from a stolen lease's checkpoint).
	Evaluated int `json:"evaluated"`
	// Failed is the number of designs left in a failed state by the
	// worker's leases.
	Failed int `json:"failed"`
}

// Run executes a streaming, checkpointable, retrying sweep of the space
// under the strategy.
//
// Unlike explorer.Search, Run never materializes the full outcome set: it
// evaluates designs in bounded batches and folds each batch into the running
// optimum and Pareto frontier, so memory stays flat no matter how dense the
// grid is. With a checkpoint configured, progress persists across process
// deaths: an interrupted sweep resumed with Options.Checkpoint.Resume converges to the
// same optimum and frontier as an uninterrupted run.
//
// With Options.Plan.Shard set, the run evaluates only its contiguous i/N
// slice of the work-list; per-shard checkpoints over the same space fold
// into the single-process result with MergeCheckpoints. An empty shard slice
// (more shards than designs) completes immediately with nothing evaluated.
//
// Each distinct year is simulated once: the first pass records a design
// whose twin (explorer.Inputs.Twins) is already done as done, without
// evaluating or folding it — the twin's fold already holds its outcome — and
// each batch runs through explorer.Inputs.EvaluateAll, which simulates the
// twins within the batch once. The Inputs' EvalHook therefore does not run
// for such a design, while Report.Evaluated still counts it.
//
// Failure semantics match explorer.SearchContext: a failing or panicking
// design is excluded from the optimum (after Options.Retries retry passes)
// and recorded in the report; only if every design fails does Run return a
// wrapped explorer.ErrAllDesignsFailed. On cancellation the partial result
// is returned alongside ctx's error, after a final checkpoint write.
func Run(ctx context.Context, in *explorer.Inputs, space explorer.Space, strategy explorer.Strategy, opts Options) (Result, error) {
	opts, err := opts.resolve()
	if err != nil {
		return Result{}, err
	}
	if opts.Plan.Mode == ModeAdaptive {
		return runAdaptiveLocal(ctx, in, space, strategy, opts)
	}
	job, err := NewJob(in, space, strategy)
	if err != nil {
		return Result{}, err
	}
	return job.run(ctx, in, opts)
}

// resolve applies Options defaults and validates the Plan.
func (o Options) resolve() (Options, error) {
	o = o.withDefaults()
	plan, err := o.Plan.withDefaults()
	if err != nil {
		return Options{}, err
	}
	o.Plan = plan
	return o, nil
}

// Job is a concrete sweep work-list: the exact designs one sweep invocation
// evaluates, fingerprinted by the space hash every checkpoint, merge, and
// coordination handshake validates against. NewJob builds one from a Space;
// the adaptive driver builds one per refinement round. Building the Job once
// and running it against several option sets (the coordinator runs one slice
// per lease) guarantees every run agrees on the enumeration.
type Job struct {
	// Strategy is the investment strategy every design is evaluated under.
	Strategy explorer.Strategy
	// Designs is the full work-list in enumeration order. Treat it as
	// read-only: checkpoints index into it by position.
	Designs []explorer.Design

	hash string
	meta *adaptiveMeta
	// twins is Inputs.Twins over Designs: nil when every design simulates
	// a distinct year.
	twins []int
}

// NewJob enumerates the space under the strategy into a runnable work-list.
// It fails on an empty space.
func NewJob(in *explorer.Inputs, space explorer.Space, strategy explorer.Strategy) (*Job, error) {
	designs := space.Enumerate(strategy, in.AvgDemandMW())
	if len(designs) == 0 {
		return nil, fmt.Errorf("sweep: empty search space")
	}
	return &Job{
		Strategy: strategy,
		Designs:  designs,
		hash:     sweepHash(in, strategy, designs),
		twins:    in.Twins(designs),
	}, nil
}

// SpaceHash returns the job's fingerprint — identical across any process
// that enumerated the same space from the same inputs.
func (j *Job) SpaceHash() string { return j.hash }

// Run executes the job's work-list under the given options. It is Run for a
// prebuilt work-list; the coordinator uses it to run many shard slices of
// one job without re-enumerating (and re-hashing) the space per lease.
// The options' Plan must be exhaustive: an adaptive Plan describes how to
// *derive* work-lists and is handled by Run and the coordinator, not by a
// single job.
func (j *Job) Run(ctx context.Context, in *explorer.Inputs, opts Options) (Result, error) {
	opts, err := opts.resolve()
	if err != nil {
		return Result{}, err
	}
	if opts.Plan.Mode == ModeAdaptive {
		return Result{}, fmt.Errorf("sweep: a Job is a concrete work-list; run adaptive plans through sweep.Run or the coordinator")
	}
	return j.run(ctx, in, opts)
}

// run executes the work-list. opts must already be resolved.
func (j *Job) run(ctx context.Context, in *explorer.Inputs, opts Options) (Result, error) {
	r := &runner{
		in:       in,
		strategy: j.Strategy,
		designs:  j.Designs,
		twins:    j.twins,
		opts:     opts,
		hash:     j.hash,
		meta:     j.meta,
		status:   make([]byte, len(j.Designs)),
		failErrs: make(map[int]error),
	}
	r.lo, r.hi = opts.Plan.Shard.Bounds(len(j.Designs))
	for i := range r.status {
		r.status[i] = statusPending
	}

	// An adaptive round starts from the cumulative fold state of all prior
	// rounds, so its checkpoint (and result) carries the frontier-so-far.
	// Seeding happens before restore: a checkpoint written by a seeded run
	// already includes the seeds, and re-folding them is idempotent.
	if j.meta != nil {
		if j.meta.seedBest != nil {
			r.best = *j.meta.seedBest
			r.haveBest = true
		}
		for _, o := range j.meta.seedFrontier {
			r.frontier.Add(o)
		}
	}

	resumed, err := r.restore()
	if err != nil {
		return Result{}, err
	}

	// First pass: evaluate everything still pending, reusing done twins.
	ctxErr := r.pass(ctx, r.indicesWithStatus(statusPending), false, false)

	// Retry passes: re-evaluate designs still in the failed-once state
	// (including failures restored from the checkpoint of an interrupted
	// run), up to Options.Retries times. Only the final pass makes a
	// failure permanent.
	for attempt := 1; ctxErr == nil && attempt <= opts.Retries; attempt++ {
		idxs := r.indicesWithStatus(statusFailedOnce)
		if len(idxs) == 0 {
			break
		}
		if ctxErr = r.retryBackoff(ctx, attempt); ctxErr != nil {
			break
		}
		ctxErr = r.pass(ctx, idxs, true, attempt == opts.Retries)
	}
	if ctxErr == nil && opts.Retries == 0 {
		// Without a retry pass, single failures are final.
		for i, s := range r.status {
			if s == statusFailedOnce {
				r.status[i] = statusFailedPerm
			}
		}
	}

	if err := r.checkpoint(); err != nil && ctxErr == nil {
		return Result{}, err
	}

	res := r.result(resumed)
	if ctxErr != nil {
		return res, ctxErr
	}
	if res.Report.Evaluated == 0 && len(res.Report.Failures) > 0 {
		return res, fmt.Errorf("%w: %d failures, first: %w",
			explorer.ErrAllDesignsFailed, len(res.Report.Failures), res.Report.Failures[0])
	}
	return res, nil
}

// runner holds the mutable state of one Run invocation. All mutation
// happens on the caller goroutine; worker goroutines only evaluate.
type runner struct {
	in       *explorer.Inputs
	strategy explorer.Strategy
	designs  []explorer.Design
	// twins maps each design to its representative (explorer.Inputs.Twins);
	// nil when there are none.
	twins []int
	opts  Options
	hash  string
	// meta carries the adaptive round context (round number, cells, prior
	// accounting, cumulative seeds); nil for exhaustive sweeps.
	meta *adaptiveMeta

	status   []byte
	failErrs map[int]error
	// best is the running optimum, valid only when haveBest. A value (not a
	// pointer) so fold never forces a heap allocation per improvement.
	best      explorer.Outcome
	haveBest  bool
	frontier  explorer.ParetoSet
	restored  int
	retried   int
	recovered int
	maxHeld   int
	sinceSave int

	// lo and hi delimit this run's shard slice [lo, hi) of the design
	// enumeration; [0, len(designs)) for unsharded runs. Evaluation passes
	// only consider indices inside the slice, but status, fold state, and
	// checkpoints cover the whole space.
	lo, hi int

	// evals are the per-worker evaluators, created lazily on the first batch
	// and reused across batches and retry passes so scratch buffers and the
	// renewable-supply memo stay warm for the whole run. batchDesigns,
	// outcomes and errs are the batch buffers, reused for the same reason.
	evals        []*explorer.Evaluator
	batchDesigns []explorer.Design
	outcomes     []explorer.Outcome
	errs         []error
}

// restore loads prior progress from the checkpoint file, if resuming.
func (r *runner) restore() (bool, error) {
	if !r.opts.Checkpoint.Resume || r.opts.Checkpoint.Path == "" {
		return false, nil
	}
	ck, err := loadCheckpoint(r.opts.Checkpoint.Path)
	if err != nil {
		if isNotExist(err) {
			return false, nil // nothing to resume yet: fresh sweep
		}
		return false, err
	}
	status, err := ck.matches(r.hash, len(r.designs))
	if err != nil {
		return false, err
	}
	ckShard, err := ck.shard()
	if err != nil {
		return false, err
	}
	// A checkpoint written by shard i/N may only be resumed by the same
	// shard, or adopted whole by an unsharded run (the lost-shard recovery
	// path). Resuming it under a different slice would quietly orphan the
	// designs between the two slices.
	if shard := r.opts.Plan.Shard; !shard.IsZero() && !ckShard.IsZero() && ckShard != shard {
		return false, fmt.Errorf("%w: checkpoint was written by shard %s, this run is shard %s",
			ErrCheckpointMismatch, ckShard, shard)
	}
	copy(r.status, status)
	r.retried = ck.Retried
	r.recovered = ck.Recovered
	if ck.Best != nil {
		r.best = ck.Best.outcome()
		r.haveBest = true
	}
	for _, f := range ck.Frontier {
		r.frontier.Add(f.outcome())
	}
	index := make(map[explorer.Design]int, len(r.designs))
	for i, d := range r.designs {
		index[d] = i
	}
	for _, f := range ck.Failures {
		if i, ok := index[f.Design]; ok {
			r.failErrs[i] = fmt.Errorf("sweep: restored failure: %s", f.Error)
		}
	}
	for _, s := range r.status {
		if s == statusDone {
			r.restored++
		}
	}
	return true, nil
}

// pass evaluates the given design indices in bounded batches, folding each
// batch into the running optimum and frontier. retry marks a retry pass
// over failed-once designs; final marks the last such pass, after which a
// failure becomes permanent instead of staying eligible for another retry.
// It returns ctx's error if cancelled (after a best-effort checkpoint
// write) and nil otherwise.
func (r *runner) pass(ctx context.Context, idxs []int, retry, final bool) error {
	for start := 0; start < len(idxs); start += r.opts.BatchSize {
		if err := ctx.Err(); err != nil {
			r.checkpointBestEffort()
			return err
		}
		end := start + r.opts.BatchSize
		if end > len(idxs) {
			end = len(idxs)
		}
		batch := idxs[start:end]
		if !retry {
			batch = r.reuseTwins(batch)
		}
		outcomes, errs := r.evalBatch(ctx, batch)
		if len(batch) > r.maxHeld {
			r.maxHeld = len(batch)
		}
		// Fold sequentially in enumeration order, so the optimum and
		// frontier are reproduced identically by interrupted-and-resumed
		// runs.
		for k, i := range batch {
			switch {
			case errors.Is(errs[k], explorer.ErrSkipped):
				// Cancelled before this design was evaluated: stays pending.
			case errs[k] != nil:
				r.failErrs[i] = errs[k]
				if retry && final {
					r.status[i] = statusFailedPerm
				} else {
					r.status[i] = statusFailedOnce
				}
				if retry {
					r.retried++
				}
			default:
				if retry {
					r.retried++
					r.recovered++
					delete(r.failErrs, i)
				}
				r.fold(outcomes[k])
				r.status[i] = statusDone
				r.sinceSave++
			}
		}
		if r.opts.Checkpoint.Path != "" && r.sinceSave >= r.opts.Checkpoint.Every {
			if err := r.checkpoint(); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			r.checkpointBestEffort()
			return err
		}
	}
	return nil
}

// retryBackoff waits out the jittered exponential delay before retry pass
// `attempt`, honoring cancellation. The jitter seed is the sweep's space
// hash, so resumed and repeated runs of the same sweep wait identical
// spans — retry timing can never perturb the deterministic fold.
func (r *runner) retryBackoff(ctx context.Context, attempt int) error {
	seed, err := strconv.ParseUint(r.hash, 16, 64)
	if err != nil {
		// The hash is always 16 hex digits; an unparsable one would be a
		// programming error, but an unjittered wait is still correct.
		seed = 0
	}
	d := BackoffDelay(seed, attempt, r.opts.RetryBackoff, 100*r.opts.RetryBackoff)
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		r.checkpointBestEffort()
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// evalBatch gathers one batch's designs and evaluates them through
// explorer's pool (Inputs.EvaluateAll), bounded by GOMAXPROCS workers, and
// returns per-design outcomes and errors aligned with the batch (the slices
// are the runner's reusable buffers, valid until the next call). Each worker
// evaluates through its own persistent explorer.Evaluator, so the memoized
// renewable supply and the scratch buffers stay warm across batches and
// retry passes.
func (r *runner) evalBatch(ctx context.Context, batch []int) ([]explorer.Outcome, []error) {
	if cap(r.outcomes) < len(batch) {
		r.batchDesigns = make([]explorer.Design, len(batch))
		r.outcomes = make([]explorer.Outcome, len(batch))
		r.errs = make([]error, len(batch))
	}
	designs, outcomes, errs := r.batchDesigns[:len(batch)], r.outcomes[:len(batch)], r.errs[:len(batch)]
	for k, i := range batch {
		designs[k] = r.designs[i]
	}
	workers := min(runtime.GOMAXPROCS(0), len(batch))
	for len(r.evals) < workers {
		ev := r.in.NewEvaluator()
		// The fold drops SoC traces anyway (see fold); discarding them at
		// the source keeps the steady-state evaluate path allocation-free.
		ev.DiscardSoCTrace = true
		r.evals = append(r.evals, ev)
	}
	r.in.EvaluateAll(ctx, r.evals[:workers], designs, outcomes, errs)
	return outcomes, errs
}

// reuseTwins records every design of a first-pass batch whose twin
// (explorer.Inputs.Twins) is already done as done, without evaluating or
// folding it, and returns the rest of the batch, compacted in place. The
// skipped fold would change nothing: the twin precedes the design in fold
// order, their outcomes differ only in Design, the optimum only moves on a
// strictly better outcome, and the frontier keeps the first exact duplicate.
func (r *runner) reuseTwins(batch []int) []int {
	if r.twins == nil {
		return batch
	}
	rest := batch[:0]
	for _, i := range batch {
		if t := r.twins[i]; t != i && r.status[t] == statusDone {
			r.status[i] = statusDone
			r.sinceSave++
			continue
		}
		rest = append(rest, i)
	}
	return rest
}

// fold streams one successful outcome into the running optimum and
// frontier, dropping its hourly state-of-charge trace so retained memory is
// bounded by the frontier, not the grid.
func (r *runner) fold(o explorer.Outcome) {
	o.BatterySoC = timeseries.Series{}
	if !r.haveBest || explorer.Better(o, r.best) {
		r.best = o
		r.haveBest = true
	}
	r.frontier.Add(o)
}

// indicesWithStatus lists in-shard designs currently in the given state, in
// enumeration order. Designs outside the shard slice belong to other
// workers and are never evaluated here.
func (r *runner) indicesWithStatus(s byte) []int {
	var out []int
	for i := r.lo; i < r.hi; i++ {
		if r.status[i] == s {
			out = append(out, i)
		}
	}
	return out
}

// checkpoint persists the current fold state, if a path is configured.
func (r *runner) checkpoint() error {
	if r.opts.Checkpoint.Path == "" {
		return nil
	}
	ck := &checkpointFile{
		Version:   checkpointVersion,
		SpaceHash: r.hash,
		Site:      r.in.Site.ID,
		Strategy:  int(r.strategy),
		Designs:   len(r.designs),
		Shard:     r.opts.Plan.Shard.String(),
		Status:    encodeStatusRLE(r.status),
		Retried:   r.retried,
		Recovered: r.recovered,
	}
	if r.meta != nil {
		r.meta.stamp(ck)
	}
	if r.haveBest {
		so := saveOutcome(r.best)
		ck.Best = &so
	}
	for _, o := range r.frontier.Frontier() {
		ck.Frontier = append(ck.Frontier, saveOutcome(o))
	}
	// Walk indices in order (not the map) so the failure list is
	// deterministic and merged checkpoints are byte-stable.
	for i := range r.status {
		err, ok := r.failErrs[i]
		if !ok || (r.status[i] != statusFailedOnce && r.status[i] != statusFailedPerm) {
			continue
		}
		ck.Failures = append(ck.Failures, savedFailure{
			Design:    r.designs[i],
			Index:     i,
			Error:     err.Error(),
			Permanent: r.status[i] == statusFailedPerm,
		})
	}
	r.sinceSave = 0
	return ck.save(r.opts.Checkpoint.Path)
}

// checkpointBestEffort saves on the cancellation path, where the ctx error
// is the one the caller needs to see; a save failure must not mask it.
func (r *runner) checkpointBestEffort() {
	_ = r.checkpoint()
}

// result assembles the public Result from the runner's final state.
func (r *runner) result(resumed bool) Result {
	res := Result{Strategy: r.strategy, Resumed: resumed}
	res.Report.Restored = r.restored
	res.Report.Retried = r.retried
	res.Report.Recovered = r.recovered
	res.Report.MaxResident = r.maxHeld
	for i, s := range r.status {
		switch s {
		case statusDone:
			res.Report.Evaluated++
		case statusPending:
			if i < r.lo || i >= r.hi {
				res.Report.OutOfShard++
			} else {
				res.Report.Skipped++
			}
		case statusFailedOnce, statusFailedPerm:
			err := r.failErrs[i]
			if err == nil {
				err = fmt.Errorf("sweep: failure cause not recorded")
			}
			res.Report.Failures = append(res.Report.Failures, explorer.DesignError{Design: r.designs[i], Err: err})
		}
	}
	if r.haveBest {
		res.Optimal = r.best
	}
	res.Frontier = r.frontier.Frontier()
	return res
}

// isNotExist reports whether err means the checkpoint file is absent.
func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
