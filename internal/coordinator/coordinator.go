package coordinator

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/sweep"
)

// Options configures a coordinated, work-stealing sweep. The zero value is
// a sensible default: one worker per CPU, eight leases per worker,
// in-process coordination.
type Options struct {
	// Plan selects what the fleet sweeps: the zero value is a full-space
	// exhaustive sweep; Mode sweep.ModeAdaptive runs the coarse-to-fine
	// refinement with every round fanned out across the fleet. Plan.Shard
	// must be zero — leases already partition the work-list.
	Plan sweep.Plan
	// Workers is the number of concurrent workers (default GOMAXPROCS,
	// capped by the lease count — an idle worker with no lease left to
	// claim adds nothing).
	Workers int
	// Leases is how many slices the design space is split into (default 8
	// per worker, clamped to the design count). More leases than workers
	// is the point of dynamic scheduling: slices small enough that a fast
	// worker absorbs a slow or dead one's backlog instead of idling.
	Leases int
	// LeaseDir, when non-empty, switches to multi-process coordination
	// through atomic lease files in this directory: independently started
	// processes pointed at the same directory share the sweep, a worker's
	// progress survives its death as a per-lease checkpoint, and expired
	// leases are stolen and resumed. Empty coordinates in-process only,
	// with no files written.
	LeaseDir string
	// Endpoint, when non-empty, switches to network coordination against
	// an HTTP coordinator (see Service and the `coordinate` subcommand) at
	// this base URL, e.g. "http://host:8080". Workers on any machine
	// pointed at the same coordinator share the sweep with the same
	// claim/heartbeat/steal semantics as LeaseDir mode — no shared
	// filesystem required. Mutually exclusive with LeaseDir.
	Endpoint string
	// Transport, when non-nil, replaces the network client's underlying
	// http.RoundTripper in Endpoint mode — the chaos-test hook for
	// injecting deterministic network faults. Ignored otherwise.
	Transport http.RoundTripper
	// Checkpoint is where the final merged checkpoint is written in
	// LeaseDir mode (default <LeaseDir>/merged.json); Run resumes it
	// automatically, so re-invoking after a crash or cancellation
	// continues instead of restarting. Ignored without a LeaseDir.
	Checkpoint string
	// BatchSize is each worker's per-lease evaluation batch size (see
	// sweep.Options.BatchSize). Per-lease evaluation is itself parallel,
	// so W workers × min(GOMAXPROCS, BatchSize) goroutines evaluate at
	// once; set BatchSize 1 to pin each worker to one design at a time.
	BatchSize int
	// CheckpointEvery is the per-lease checkpoint cadence in LeaseDir mode
	// (default 64): how many evaluated designs a worker's death can lose.
	CheckpointEvery int
	// Retries is how many times a failed design is re-evaluated within its
	// lease (see sweep.Options.Retries: 0 means one retry,
	// sweep.NoRetries disables).
	Retries int
	// Heartbeat paces both multi-process transports (default 1s): how often
	// a worker refreshes its claimed lease's liveness — a lease-file write
	// in LeaseDir mode, a heartbeat request carrying changed checkpoint
	// bytes in Endpoint mode — and how often an idle worker re-claims while
	// every remaining lease runs elsewhere. A lease completed by a worker of
	// the same Run wakes its idle siblings at once; only leases held by
	// other processes are re-checked at this pace.
	Heartbeat time.Duration
	// Expiry is how stale a running lease's heartbeat must be before
	// another worker may steal it (default 10×Heartbeat). Shorter expiry
	// recovers dead workers faster but tolerates less scheduling jitter
	// before a live worker is (benignly) double-evaluated.
	Expiry time.Duration
	// Worker is this process's owner-label prefix in lease files (default
	// "pid<pid>"); worker k of the pool is labeled "<Worker>/wk". Give
	// each process a distinct value when coordinating across machines
	// whose PIDs may collide.
	Worker string
	// InputsFor, when non-nil, supplies worker k's evaluation inputs
	// instead of the shared Inputs — the chaos and benchmark hook: a
	// slowed or faulty worker is an InputsFor returning hooked inputs.
	// Every worker's inputs must describe the same sweep (same site,
	// series, and hence space hash) or lease checkpoints will be rejected
	// as mismatched. A worker whose inputs are not the shared Inputs takes
	// no part in the run's memo of simulated years (see Run): it simulates
	// every design it evaluates, as its hooks expect.
	InputsFor func(worker int) *explorer.Inputs
}

// withDefaults normalizes the options against an n-design space.
func (o Options) withDefaults(n int) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Leases <= 0 {
		o.Leases = 8 * o.Workers
	}
	if o.Leases > n {
		o.Leases = n
	}
	if o.Workers > o.Leases {
		o.Workers = o.Leases
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.Expiry <= 0 {
		o.Expiry = 10 * o.Heartbeat
	}
	if o.Worker == "" {
		o.Worker = fmt.Sprintf("pid%d", os.Getpid())
	}
	if o.LeaseDir != "" && o.Checkpoint == "" {
		o.Checkpoint = MergedCheckpointPath(o.LeaseDir)
	}
	return o
}

// workerLabel names worker w in lease files and Result.Workers.
func workerLabel(opts Options, w int) string {
	return fmt.Sprintf("%s/w%d", opts.Worker, w)
}

// workerInputs picks worker w's evaluation inputs.
func workerInputs(in *explorer.Inputs, opts Options, w int) *explorer.Inputs {
	if opts.InputsFor != nil {
		return opts.InputsFor(w)
	}
	return in
}

// Run executes a coordinated, work-stealing sweep of the space under the
// strategy and returns the same Result a single-process sweep.Run over the
// full space would — byte-identical optimum, frontier, and failure
// ordering — with Result.Workers filled in with per-worker progress.
//
// The design space is split into Options.Leases contiguous slices, far
// more than there are workers, and workers claim them dynamically. Without
// a LeaseDir the pool coordinates in-process; with one, coordination goes
// through atomic lease files so independently started processes share the
// sweep, dead workers' leases are stolen after their heartbeat expires,
// and the thief resumes the per-lease checkpoint instead of re-evaluating.
//
// All leases of one Run share the job's memo of simulated years (on every
// transport, and across the rounds of an adaptive plan), so on a site with a
// shape that never generates a lease fills a twin whose representative
// another lease already simulated from the memo, at its own place in the
// lease's fold: every lease checkpoint keeps its bytes. Such a design counts
// as evaluated but does not run the Inputs' EvalHook. Nothing is kept across
// Run calls or processes.
//
// Failure semantics mirror sweep.Run: failed designs are retried, then
// excluded and reported; only if every design fails does Run return a
// wrapped explorer.ErrAllDesignsFailed. On cancellation the partial result
// is returned alongside ctx's error — in LeaseDir mode after folding every
// lease checkpoint written so far into Options.Checkpoint, so a later
// invocation (or a plain `optimize -resume`) continues from there.
func Run(ctx context.Context, in *explorer.Inputs, space explorer.Space, strategy explorer.Strategy, opts Options) (sweep.Result, error) {
	if opts.Endpoint != "" && opts.LeaseDir != "" {
		return sweep.Result{}, fmt.Errorf("coordinator: Endpoint and LeaseDir are mutually exclusive; pick one transport")
	}
	plan, err := opts.Plan.Normalized()
	if err != nil {
		return sweep.Result{}, err
	}
	if !plan.Shard.IsZero() {
		return sweep.Result{}, fmt.Errorf("coordinator: Plan.Shard %s is incompatible with coordinated sweeps — leases already partition the work-list", plan.Shard)
	}
	opts.Plan = plan
	if plan.Mode == sweep.ModeAdaptive {
		return runAdaptive(ctx, in, space, strategy, opts)
	}
	job, err := sweep.NewJob(in, space, strategy)
	if err != nil {
		return sweep.Result{}, fmt.Errorf("coordinator: empty search space")
	}
	return runJob(ctx, in, opts, job)
}

// runAdaptive fans each refinement round of an adaptive plan out across the
// fleet: sweep.RunAdaptiveRounds derives every round's deterministic
// work-list, and the eval callback runs it through the configured transport
// as one coordinated job. In LeaseDir mode each round gets its own
// round-NNNN subdirectory — its board and per-round merged checkpoint are
// the round's durable state, so a killed fleet re-invoked over the same
// directory replays finished rounds from files and resumes the interrupted
// one. The converged final checkpoint lands at Options.Checkpoint (default
// <LeaseDir>/merged.json), where `optimize -resume` and `serve -state`
// expect it.
func runAdaptive(ctx context.Context, in *explorer.Inputs, space explorer.Space, strategy explorer.Strategy, opts Options) (sweep.Result, error) {
	finalPath := opts.Checkpoint
	if finalPath == "" && opts.LeaseDir != "" {
		finalPath = MergedCheckpointPath(opts.LeaseDir)
	}
	swOpts := sweep.Options{
		BatchSize: opts.BatchSize,
		Retries:   opts.Retries,
		Plan:      opts.Plan,
		Checkpoint: sweep.CheckpointOptions{
			Path:   finalPath,
			Every:  opts.CheckpointEvery,
			Resume: finalPath != "",
		},
	}
	eval := func(ctx context.Context, job *sweep.Job, round int) (sweep.Result, error) {
		ro := opts
		ro.Plan = sweep.Plan{} // each round is a concrete exhaustive work-list
		ro.Checkpoint = ""     // rounds keep their state out of the final path
		if opts.LeaseDir != "" {
			ro.LeaseDir = filepath.Join(opts.LeaseDir, fmt.Sprintf("round-%04d", round))
		}
		return runJob(ctx, in, ro, job)
	}
	return sweep.RunAdaptiveRounds(ctx, in, space, strategy, swOpts, eval)
}

// runJob dispatches one concrete work-list to the configured transport.
func runJob(ctx context.Context, in *explorer.Inputs, opts Options, job *sweep.Job) (sweep.Result, error) {
	n := len(job.Designs)
	opts = opts.withDefaults(n)
	if opts.Expiry < HeartbeatSafetyFactor*opts.Heartbeat {
		return sweep.Result{}, fmt.Errorf("%w: expiry %v < %d × heartbeat %v", ErrLivenessConfig, opts.Expiry, HeartbeatSafetyFactor, opts.Heartbeat)
	}
	if opts.Endpoint != "" {
		return runNetwork(ctx, in, opts, job)
	}
	plans, err := sweep.PlanShards(n, opts.Leases)
	if err != nil {
		return sweep.Result{}, err
	}
	if opts.LeaseDir == "" {
		return runMemory(ctx, in, opts, job, plans)
	}
	return runLeaseDir(ctx, in, opts, job, plans)
}

// runMemory coordinates in-process workers through a memSource. Every
// lease produces a full-space-accounted Result; folding them in lease order
// through sweep.MergeResults reproduces the single-process fold exactly.
func runMemory(ctx context.Context, in *explorer.Inputs, opts Options, job *sweep.Job, plans []sweep.ShardPlan) (sweep.Result, error) {
	src := &memSource{leases: len(plans)}
	progress, _, err := runWorkers(ctx, src, in, opts, job, plans)
	results := make([]sweep.Result, len(src.claimed))
	for li, a := range src.claimed {
		results[li] = a.res
	}
	merged := sweep.MergeResults(results...)
	// A run cancelled before its first claim folds no Result at all.
	merged.Strategy = job.Strategy
	merged.Workers = progress
	// Every design lies in some lease, so a design no lease accounted for
	// belongs to one that cancellation left unclaimed: skipped, not out of
	// shard.
	merged.Report.Skipped = len(job.Designs) - merged.Report.Evaluated - len(merged.Report.Failures)
	merged.Report.OutOfShard = 0
	if err != nil {
		return merged, err
	}
	if merged.Report.Evaluated == 0 && len(merged.Report.Failures) > 0 {
		return merged, fmt.Errorf("%w: %d failures, first: %w",
			explorer.ErrAllDesignsFailed, len(merged.Report.Failures), merged.Report.Failures[0])
	}
	return merged, nil
}

// runLeaseDir coordinates through lease files: claim, heartbeat, sweep the
// slice with a resumable per-lease checkpoint, mark done, repeat; then
// fold every lease checkpoint into the merged checkpoint and restore the
// Result from it.
func runLeaseDir(ctx context.Context, in *explorer.Inputs, opts Options, job *sweep.Job, plans []sweep.ShardPlan) (sweep.Result, error) {
	// A finished sweep whose board was already cleaned up leaves the merged
	// checkpoint as its durable record. Restore it instead of re-claiming an
	// empty board and re-evaluating — the replay path adaptive refinements
	// take through every completed round after a crash.
	if ck, err := sweep.ReadCheckpoint(opts.Checkpoint); err == nil && ck.Complete() && ck.SpaceHash == job.SpaceHash() {
		return restoreMerged(ctx, in, opts, job, opts.Checkpoint, nil, 0)
	}
	b, err := newBoard(opts.LeaseDir, plans, opts.Heartbeat, opts.Expiry)
	if err != nil {
		return sweep.Result{}, err
	}
	progress, maxResident, err := runWorkers(ctx, fileSource{b: b}, in, opts, job, plans)
	if err != nil && !isCtxErr(err) {
		return sweep.Result{}, err
	}

	// Fold whatever lease checkpoints exist — all of them after a clean
	// finish, the partial subset after a cancellation — into the merged
	// checkpoint. A concurrent finisher may already have merged and
	// cleaned the lease files up; its merged checkpoint then stands in.
	srcs := b.existingCheckpoints()
	var complete bool
	if len(srcs) > 0 {
		rep, err := sweep.MergeCheckpoints(opts.Checkpoint, srcs...)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return sweep.Result{}, cerr
			}
			return sweep.Result{}, err
		}
		complete = rep.Complete()
	} else if _, err := os.Stat(opts.Checkpoint); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return sweep.Result{}, cerr
		}
		return sweep.Result{}, fmt.Errorf("coordinator: no lease checkpoints were written under %s", opts.LeaseDir)
	}

	res, err := restoreMerged(ctx, in, opts, job, opts.Checkpoint, progress, maxResident)
	if err != nil {
		return res, err
	}
	if complete {
		b.cleanup(opts.Worker + "/")
	}
	return res, nil
}

// runWorkers runs opts.Workers copies of runWorker against src — the one
// worker pool of every transport — and waits for all of them. It returns
// each worker's progress, the peak MaxResident of the leases they
// completed, and the first worker error that is not a cancellation, else
// the first cancellation.
func runWorkers(ctx context.Context, src leaseSource, in *explorer.Inputs, opts Options, job *sweep.Job, plans []sweep.ShardPlan) ([]sweep.WorkerProgress, int, error) {
	progress := make([]sweep.WorkerProgress, opts.Workers)
	maxResident := make([]int, opts.Workers)
	errs := make([]error, opts.Workers)
	completed := newCompletions()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = runWorker(ctx, src, completed, in, opts, job, plans, w, &progress[w], &maxResident[w])
		}(w)
	}
	wg.Wait()
	peak := 0
	var first error
	for w, err := range errs {
		peak = max(peak, maxResident[w])
		if err != nil && !isCtxErr(err) {
			return progress, peak, err
		}
		if first == nil {
			first = err
		}
	}
	return progress, peak, first
}

// restoreMerged restores the merged checkpoint at path into a Result. Every
// design it records as done comes back as Restored, except the ones this
// invocation's workers (progress) evaluated. Every lease is done after a
// clean run, so this evaluates nothing; under a cancelled ctx it returns the
// partial fold alongside the ctx error.
func restoreMerged(ctx context.Context, in *explorer.Inputs, opts Options, job *sweep.Job, path string, progress []sweep.WorkerProgress, maxResident int) (sweep.Result, error) {
	res, err := job.Run(ctx, in, sweep.Options{
		BatchSize: opts.BatchSize,
		Retries:   opts.Retries,
		Checkpoint: sweep.CheckpointOptions{
			Path:   path,
			Every:  opts.CheckpointEvery,
			Resume: true,
		},
	})
	if progress == nil {
		return res, err
	}
	res.Workers = progress
	res.Report.MaxResident = max(res.Report.MaxResident, maxResident)
	fresh := 0
	for _, p := range progress {
		fresh += p.Evaluated
	}
	// Clamped: a benign double-evaluation after a stolen-lease race can
	// count a design twice.
	res.Report.Restored = max(0, res.Report.Evaluated-fresh)
	res.Resumed = res.Report.Restored > 0
	return res, err
}

// completions is the completion broadcast shared by the workers of one
// coordinated job: each lease a worker completes closes the current channel
// and installs a fresh one, waking every sibling idling on it. It reaches
// only the workers of this process; leases other processes hold are still
// re-checked once per Poll.
type completions struct {
	mu sync.Mutex
	ch chan struct{}
}

func newCompletions() *completions { return &completions{ch: make(chan struct{})} }

// next returns the channel the next completion closes.
func (c *completions) next() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ch
}

// broadcast wakes every worker waiting on the current channel.
func (c *completions) broadcast() {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.ch)
	c.ch = make(chan struct{})
}

// runWorker is one worker's claim-evaluate-complete loop, written once for
// every transport behind the leaseSource seam: in-process, lease files and
// the network. It leaves each claimed lease's Result in its assignment, also
// when cancellation cuts the lease short, and counts only the leases it
// completed.
func runWorker(ctx context.Context, src leaseSource, completed *completions, in *explorer.Inputs, opts Options, job *sweep.Job, plans []sweep.ShardPlan, w int, progress *sweep.WorkerProgress, maxResident *int) error {
	label := workerLabel(opts, w)
	progress.Worker = label
	win := workerInputs(in, opts, w)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Taken before the claim, so a sibling's completion landing between
		// the claim and the wait below still wakes this worker.
		woken := completed.next()
		a, done, err := src.Claim(ctx, label)
		if err != nil {
			return err
		}
		if a == nil {
			if done {
				return nil
			}
			// Every remaining lease is healthily running elsewhere. Wait:
			// a sibling's completion, or — for leases other processes hold —
			// the next poll is what frees this worker. An explicit timer,
			// not time.After: when ctx or a completion wins the select,
			// After's timer would survive until it fires — one leaked timer
			// per poll round for as long as the sweep takes.
			t := time.NewTimer(src.Poll())
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-woken:
				t.Stop()
			case <-t.C:
			}
			continue
		}
		stop := src.Watch(ctx, a, label)
		a.res, err = job.Run(ctx, win, sweep.Options{
			BatchSize: opts.BatchSize,
			Retries:   opts.Retries,
			Plan:      sweep.Plan{Shard: plans[a.lease].Shard},
			Checkpoint: sweep.CheckpointOptions{
				Path:   a.ckpt,
				Every:  opts.CheckpointEvery,
				Resume: true,
			},
		})
		stop()
		res := a.res
		if err != nil && !errors.Is(err, explorer.ErrAllDesignsFailed) {
			// Cancelled or I/O failure: leave the lease claimed. With the
			// heartbeat stopped it expires, so a later worker — or a later
			// invocation — steals it and resumes its checkpoint. The partial
			// lease still counts toward this worker's fresh evaluations so
			// the final restored-design accounting stays exact.
			progress.Evaluated += res.Report.Evaluated - res.Report.Restored
			progress.Failed += len(res.Report.Failures)
			return err
		}
		if err := src.Complete(ctx, a, label); err != nil {
			return err
		}
		completed.broadcast()
		progress.Leases++
		if a.stolen {
			progress.Stolen++
		}
		progress.Evaluated += res.Report.Evaluated - res.Report.Restored
		progress.Failed += len(res.Report.Failures)
		if res.Report.MaxResident > *maxResident {
			*maxResident = res.Report.MaxResident
		}
	}
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
