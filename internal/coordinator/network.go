package coordinator

// Transport-oblivious workers. The claim/heartbeat/complete loop a worker
// runs is identical whether leases live in memory, in a shared directory or
// behind an HTTP coordinator; leaseSource abstracts exactly that seam, so
// runWorker (coordinator.go) is written once and chaos tests exercising one
// transport exercise the scheduling logic of all three.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/sweep"
)

// assignment is one claimed lease as a worker sees it: which slice, whether
// it was stolen, where its resumable checkpoint lives on the local
// filesystem (the shared directory in file mode, a private staging
// directory in network mode, none in-process), and the lease's sweep Result
// once runWorker has run it.
type assignment struct {
	lease  int
	stolen bool
	ckpt   string
	t      *ticket // file-mode claim ticket; nil otherwise
	res    sweep.Result
}

// leaseSource is the transport seam: how a worker claims, keeps alive, and
// completes leases.
type leaseSource interface {
	// Claim returns the next assignment, or nil with done reporting whether
	// the sweep is finished (true) or merely has every remaining lease
	// healthily running elsewhere (false — poll again after Poll()).
	Claim(ctx context.Context, owner string) (*assignment, bool, error)
	// Watch keeps the assignment alive — and, transport permitting, ships
	// progress — until the returned stop function is called.
	Watch(ctx context.Context, a *assignment, owner string) (stop func())
	// Complete publishes the assignment as done; its checkpoint at a.ckpt
	// holds a final status for every design in the slice.
	Complete(ctx context.Context, a *assignment, owner string) error
	// Poll is how long a worker waits between claim attempts while every
	// remaining lease runs elsewhere — Options.Heartbeat — unless a sibling
	// worker of the same job completes a lease first.
	Poll() time.Duration
}

// memSource hands an in-process run's leases out in order. It writes no
// files and never expires a lease: its workers share one process, so a lease
// ends only by finishing or by cancellation. It keeps every claimed
// assignment in lease order, so runMemory can fold their Results.
type memSource struct {
	leases int

	mu      sync.Mutex
	claimed []*assignment
}

func (m *memSource) Claim(context.Context, string) (*assignment, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.claimed) == m.leases {
		return nil, true, nil
	}
	a := &assignment{lease: len(m.claimed)}
	m.claimed = append(m.claimed, a)
	return a, false, nil
}

func (m *memSource) Watch(context.Context, *assignment, string) func() { return func() {} }

func (m *memSource) Complete(context.Context, *assignment, string) error { return nil }

// Poll is never waited out: Claim never reports a lease running elsewhere.
func (m *memSource) Poll() time.Duration { return 0 }

// fileSource adapts the lease-file board to leaseSource — the original
// shared-directory transport.
type fileSource struct{ b *board }

func (f fileSource) Claim(_ context.Context, owner string) (*assignment, bool, error) {
	t, done, err := f.b.claim(owner)
	if err != nil || t == nil {
		return nil, done, err
	}
	return &assignment{lease: t.lease, stolen: t.stolen, ckpt: f.b.checkpointPath(t.lease), t: t}, false, nil
}

func (f fileSource) Watch(_ context.Context, a *assignment, owner string) func() {
	return f.b.heartbeat(a.t, owner)
}

func (f fileSource) Complete(_ context.Context, a *assignment, owner string) error {
	return f.b.markDone(a.t, owner)
}

func (f fileSource) Poll() time.Duration { return f.b.beat }

// netSource claims leases from an HTTP coordinator. Per-lease checkpoints
// are staged in a private local directory: sweep.Run writes them exactly as
// in file mode, the heartbeat goroutine ships changed bytes to the
// coordinator, and Complete uploads the final state — so a worker's death
// loses at most one heartbeat interval of progress, same as file mode loses
// at most one checkpoint cadence.
type netSource struct {
	c    *Client
	dir  string
	beat time.Duration
	// reg re-registers the sweep when the coordinator answers
	// ErrNotRegistered — the recovery path after a coordinator restart that
	// lost its state directory.
	reg RegisterRequest
	// leases is the authoritative lease count, for checkpoint file naming.
	leases int
}

// ckptPath is lease li's staged checkpoint, named like the file-mode lease
// directory's for operator familiarity.
func (n *netSource) ckptPath(li int) string {
	return filepath.Join(n.dir, fmt.Sprintf("lease-%04d-of-%04d.ckpt.json", li+1, n.leases))
}

func (n *netSource) Claim(ctx context.Context, owner string) (*assignment, bool, error) {
	resp, err := n.c.Claim(ctx, ClaimRequest{Owner: owner})
	if errors.Is(err, ErrNotRegistered) {
		// The coordinator restarted without its state directory. Re-register
		// the sweep and try again; lease progress uploaded before the wipe
		// is gone, but determinism means re-evaluation converges to the
		// same bytes.
		if _, rerr := n.c.Register(ctx, n.reg); rerr != nil {
			return nil, false, fmt.Errorf("coordinator: re-registering after coordinator state loss: %w", rerr)
		}
		resp, err = n.c.Claim(ctx, ClaimRequest{Owner: owner})
	}
	if err != nil {
		return nil, false, err
	}
	if resp.Lease < 0 {
		return nil, resp.Done, nil
	}
	// Materialize the coordinator's stored checkpoint (the stolen-lease
	// resume path); clear any stale local file when it has none, so a
	// leftover from an earlier interrupted claim can't resurrect state the
	// coordinator never saw confirmed.
	ckpt := n.ckptPath(resp.Lease)
	if len(resp.Checkpoint) > 0 {
		if err := sweep.WriteFileAtomic(ckpt, resp.Checkpoint); err != nil {
			return nil, false, err
		}
	} else if err := os.Remove(ckpt); err != nil && !os.IsNotExist(err) {
		return nil, false, fmt.Errorf("coordinator: clearing stale lease %d checkpoint: %w", resp.Lease, err)
	}
	return &assignment{lease: resp.Lease, stolen: resp.Stolen, ckpt: ckpt}, false, nil
}

func (n *netSource) Watch(ctx context.Context, a *assignment, owner string) func() {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(n.beat)
		defer tick.Stop()
		var uploaded []byte
		for {
			select {
			case <-quit:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				// Ship the local checkpoint when it changed since the last
				// upload, so worker death loses at most a beat of progress.
				var payload []byte
				if data, err := os.ReadFile(a.ckpt); err == nil && !bytes.Equal(data, uploaded) {
					payload = data
				}
				err := n.c.Heartbeat(ctx, HeartbeatRequest{Owner: owner, Lease: a.lease, Checkpoint: payload})
				if err == nil && payload != nil {
					uploaded = payload
				}
				// A failed beat is dropped, as in file mode: at worst the
				// lease expires and is stolen, and theft is benign.
			}
		}
	}()
	return func() { close(quit); <-done }
}

func (n *netSource) Complete(ctx context.Context, a *assignment, owner string) error {
	data, err := os.ReadFile(a.ckpt)
	if err != nil {
		return fmt.Errorf("coordinator: reading lease %d checkpoint for upload: %w", a.lease, err)
	}
	if err := n.c.Complete(ctx, CompleteRequest{Owner: owner, Lease: a.lease, Checkpoint: data}); err != nil {
		return err
	}
	// Best-effort: the coordinator holds the final bytes now.
	_ = os.Remove(a.ckpt)
	return nil
}

func (n *netSource) Poll() time.Duration { return n.beat }

// runNetwork runs this process's worker pool against an HTTP coordinator:
// register the sweep, adopt the coordinator's authoritative lease count,
// loop claim/evaluate/complete, then fetch the merged checkpoint and
// restore the Result from it — the network sibling of runLeaseDir.
func runNetwork(ctx context.Context, in *explorer.Inputs, opts Options, job *sweep.Job) (sweep.Result, error) {
	client := NewClient(opts.Endpoint, ClientOptions{Transport: opts.Transport})
	reg := RegisterRequest{
		Owner:       opts.Worker,
		SpaceHash:   job.SpaceHash(),
		Site:        in.Site.ID,
		Strategy:    int(job.Strategy),
		Designs:     len(job.Designs),
		Leases:      opts.Leases,
		HeartbeatMS: opts.Heartbeat.Milliseconds(),
	}
	regResp, err := client.Register(ctx, reg)
	if err != nil {
		return sweep.Result{}, err
	}

	staging, err := os.MkdirTemp("", "carbonexplorer-net-")
	if err != nil {
		return sweep.Result{}, fmt.Errorf("coordinator: creating checkpoint staging directory: %w", err)
	}
	defer os.RemoveAll(staging)
	// restore lands the coordinator's merged checkpoint locally and
	// restores the Result from it.
	restore := func(data []byte, progress []sweep.WorkerProgress, maxResident int) (sweep.Result, error) {
		ckpt := opts.Checkpoint
		if ckpt == "" {
			ckpt = MergedCheckpointPath(staging)
		}
		if err := sweep.WriteFileAtomic(ckpt, data); err != nil {
			return sweep.Result{}, err
		}
		return restoreMerged(ctx, in, opts, job, ckpt, progress, maxResident)
	}

	if regResp.Complete {
		// The coordinator already finished — and archived — this exact job
		// (a refinement round a faster fleet completed and moved past).
		// Fetch the archived fold and restore the Result locally; nothing
		// is left to evaluate.
		data, err := client.MergedCheckpointFor(ctx, reg.SpaceHash)
		if err != nil {
			return sweep.Result{}, err
		}
		return restore(data, nil, 0)
	}

	// The coordinator's lease count wins; every registered worker re-plans
	// with it so all fleets agree on the partition.
	plans, err := sweep.PlanShards(len(job.Designs), regResp.Leases)
	if err != nil {
		return sweep.Result{}, err
	}
	if opts.Workers > regResp.Leases {
		opts.Workers = regResp.Leases
	}
	src := &netSource{c: client, dir: staging, beat: opts.Heartbeat, reg: reg, leases: regResp.Leases}

	progress, maxResident, err := runWorkers(ctx, src, in, opts, job, plans)
	if err != nil && !isCtxErr(err) {
		return sweep.Result{}, err
	}

	// Fetch the coordinator's merged fold. Under a cancelled ctx the fetch
	// gets its own short deadline so the partial fold still comes home for
	// the caller to resume later.
	fctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
	}
	data, err := client.MergedCheckpoint(fctx)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return sweep.Result{}, cerr
		}
		return sweep.Result{}, err
	}
	return restore(data, progress, maxResident)
}
