package coordinator

// Service-level tests for the transport-agnostic lease protocol: the
// registration handshake, crash recovery from the state directory, and the
// edge cases every transport shares — a steal racing the original owner's
// final heartbeat, duplicate claims, completion after expiry, and status
// reporting during an active steal.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/sweep"
)

// testRegistration builds the registration request every service test uses.
func testRegistration(t *testing.T, in *explorer.Inputs, space explorer.Space, leases int) RegisterRequest {
	t.Helper()
	designs := space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW())
	return RegisterRequest{
		Owner:       "test",
		SpaceHash:   sweep.SpaceHash(in, explorer.RenewablesBatteryCAS, designs),
		Site:        in.Site.ID,
		Strategy:    int(explorer.RenewablesBatteryCAS),
		Designs:     len(designs),
		Leases:      leases,
		HeartbeatMS: 10,
	}
}

// newTestService opens a service with a short TTL over a temp state dir.
func newTestService(t *testing.T, dir string) *Service {
	t.Helper()
	svc, err := NewService(dir, ServiceOptions{Expiry: 60 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc
}

// leaseCheckpointBytes evaluates lease li's slice to completion and returns
// its checkpoint bytes — a worker's honest Complete payload.
func leaseCheckpointBytes(t *testing.T, in *explorer.Inputs, space explorer.Space, li, leases int) []byte {
	t.Helper()
	n := len(space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW()))
	plans, err := sweep.PlanShards(n, leases)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	path := filepath.Join(t.TempDir(), "lease.json")
	if _, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{
		Plan:       sweep.Plan{Shard: plans[li].Shard},
		Checkpoint: sweep.CheckpointOptions{Path: path, Every: 1},
	}); err != nil {
		t.Fatalf("evaluating lease %d: %v", li, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading lease checkpoint: %v", err)
	}
	return data
}

// expireLease backdates lease li's heartbeat so the next claim steals it.
func expireLease(t *testing.T, svc *Service, li int, owner string, stolen int) {
	t.Helper()
	if err := svc.b.write(li, leaseFile{Owner: owner, State: leaseRunning, HeartbeatMS: 1, Stolen: stolen}); err != nil {
		t.Fatalf("backdating lease %d: %v", li, err)
	}
}

func TestServiceRegisterIdempotentAndMismatch(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	svc := newTestService(t, t.TempDir())
	reg := testRegistration(t, in, space, 6)

	first, err := svc.Register(reg)
	if err != nil {
		t.Fatalf("first register: %v", err)
	}
	if first.Leases != 6 {
		t.Fatalf("first registrant proposed 6 leases, got %d", first.Leases)
	}
	// A second worker proposing a different lease count gets the first
	// registrant's authoritative geometry.
	other := reg
	other.Owner, other.Leases = "other", 40
	second, err := svc.Register(other)
	if err != nil {
		t.Fatalf("second register: %v", err)
	}
	if second.Leases != 6 {
		t.Fatalf("second registrant must adopt the registered 6 leases, got %d", second.Leases)
	}
	// A different sweep is rejected, not silently mixed.
	wrong := reg
	wrong.SpaceHash = "deadbeef"
	if _, err := svc.Register(wrong); !errors.Is(err, ErrSweepMismatch) {
		t.Fatalf("mismatched space hash: want ErrSweepMismatch, got %v", err)
	}
	// A heartbeat too close to the TTL is a config error, not a time bomb.
	tight := reg
	tight.HeartbeatMS = 50 // TTL 60ms < 3 × 50ms
	if _, err := svc.Register(tight); !errors.Is(err, ErrLivenessConfig) {
		t.Fatalf("tight heartbeat: want ErrLivenessConfig, got %v", err)
	}
}

func TestServicePinnedAndClampedLeases(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	reg := testRegistration(t, in, space, 0)

	// A pinned lease count overrides the registrant's proposal.
	svc, err := NewService(t.TempDir(), ServiceOptions{Expiry: 60 * time.Millisecond, Leases: 7})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	resp, err := svc.Register(reg)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if resp.Leases != 7 {
		t.Fatalf("pinned 7 leases, got %d", resp.Leases)
	}
	// A proposal beyond the design count clamps, as in file mode.
	svc2 := newTestService(t, t.TempDir())
	reg2 := reg
	reg2.Leases = 10 * reg.Designs
	resp2, err := svc2.Register(reg2)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if resp2.Leases != reg.Designs {
		t.Fatalf("lease count must clamp to %d designs, got %d", reg.Designs, resp2.Leases)
	}
}

func TestServiceRequiresRegistration(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	if _, err := svc.Claim(ClaimRequest{Owner: "w"}); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("claim before register: want ErrNotRegistered, got %v", err)
	}
	if err := svc.Heartbeat(HeartbeatRequest{Owner: "w"}); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("heartbeat before register: want ErrNotRegistered, got %v", err)
	}
	if _, _, err := svc.MergedCheckpoint(); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("checkpoint before register: want ErrNotRegistered, got %v", err)
	}
	if st := svc.Status(); st.Registered {
		t.Fatal("status claims a registration exists")
	}
}

// TestServiceCrashRecovery is the coordinator-restart contract: a new
// Service over the same state directory resumes the registered sweep, keeps
// done leases done, and lets claims steal the dead fleet's expired leases.
func TestServiceCrashRecovery(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	dir := t.TempDir()
	svc := newTestService(t, dir)
	reg := testRegistration(t, in, space, 5)
	if _, err := svc.Register(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Lease 0 completes; lease 1 is claimed and mid-flight.
	c0, err := svc.Claim(ClaimRequest{Owner: "a"})
	if err != nil || c0.Lease != 0 {
		t.Fatalf("claim lease 0: %+v, %v", c0, err)
	}
	if err := svc.Complete(CompleteRequest{Owner: "a", Lease: 0, Checkpoint: leaseCheckpointBytes(t, in, space, 0, 5)}); err != nil {
		t.Fatalf("complete lease 0: %v", err)
	}
	if c1, err := svc.Claim(ClaimRequest{Owner: "a"}); err != nil || c1.Lease != 1 {
		t.Fatalf("claim lease 1: %+v, %v", c1, err)
	}

	// The coordinator dies and a fresh process opens the same directory.
	revived, err := NewService(dir, ServiceOptions{Expiry: 60 * time.Millisecond})
	if err != nil {
		t.Fatalf("reviving service: %v", err)
	}
	st := revived.Status()
	if !st.Registered || st.SpaceHash != reg.SpaceHash || st.LeaseCount != 5 {
		t.Fatalf("revived status lost the registration: %+v", st)
	}
	if st.Done != 1 {
		t.Fatalf("revived status shows %d done leases, want 1", st.Done)
	}
	// A worker re-registers idempotently and, once the orphaned lease 1
	// expires, steals it.
	if _, err := revived.Register(reg); err != nil {
		t.Fatalf("re-register after revival: %v", err)
	}
	expireLease(t, revived, 1, "a", 0)
	c, err := revived.Claim(ClaimRequest{Owner: "b"})
	if err != nil {
		t.Fatalf("claim after revival: %v", err)
	}
	if c.Lease != 1 || !c.Stolen {
		t.Fatalf("want stolen lease 1, got %+v", c)
	}
}

// TestServiceStealRacesFinalHeartbeat: the thief claims an expired lease
// while the original owner's last heartbeat is still in flight. The late
// heartbeat lands benignly — re-asserting the old owner — and the thief's
// completion still wins: progress is monotone, the lease ends done.
func TestServiceStealRacesFinalHeartbeat(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	svc := newTestService(t, t.TempDir())
	reg := testRegistration(t, in, space, 4)
	if _, err := svc.Register(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	if c, err := svc.Claim(ClaimRequest{Owner: "victim"}); err != nil || c.Lease != 0 {
		t.Fatalf("victim claim: %+v, %v", c, err)
	}
	expireLease(t, svc, 0, "victim", 0)
	thief, err := svc.Claim(ClaimRequest{Owner: "thief"})
	if err != nil || thief.Lease != 0 || !thief.Stolen {
		t.Fatalf("thief claim: %+v, %v", thief, err)
	}
	// The victim's delayed final heartbeat arrives mid-steal. It must not
	// error and must not regress anything — just benignly re-assert.
	if err := svc.Heartbeat(HeartbeatRequest{Owner: "victim", Lease: 0}); err != nil {
		t.Fatalf("victim's late heartbeat: %v", err)
	}
	if st := svc.Status().Leases[0]; st.State != leaseStateRunning || st.Owner != "victim" {
		t.Fatalf("after late heartbeat: %+v", st)
	}
	// The thief completes; the lease is done regardless of the race, and a
	// yet-later victim heartbeat cannot downgrade it.
	if err := svc.Complete(CompleteRequest{Owner: "thief", Lease: 0, Checkpoint: leaseCheckpointBytes(t, in, space, 0, 4)}); err != nil {
		t.Fatalf("thief complete: %v", err)
	}
	if err := svc.Heartbeat(HeartbeatRequest{Owner: "victim", Lease: 0}); err != nil {
		t.Fatalf("victim's post-completion heartbeat: %v", err)
	}
	if st := svc.Status().Leases[0]; st.State != leaseStateDone {
		t.Fatalf("lease downgraded from done by a stale heartbeat: %+v", st)
	}
}

// TestServiceDuplicateClaim: claims are one-lease-at-a-time per request —
// repeated claims hand out successive leases, and once everything is
// claimed the protocol answers Wait, never a duplicate assignment.
func TestServiceDuplicateClaim(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	svc := newTestService(t, t.TempDir())
	if _, err := svc.Register(testRegistration(t, in, space, 3)); err != nil {
		t.Fatalf("register: %v", err)
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		c, err := svc.Claim(ClaimRequest{Owner: "w"})
		if err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
		if seen[c.Lease] {
			t.Fatalf("lease %d handed out twice while healthily claimed", c.Lease)
		}
		seen[c.Lease] = true
		// Keep the claim alive so the next iteration can't steal it.
		if err := svc.Heartbeat(HeartbeatRequest{Owner: "w", Lease: c.Lease}); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
	}
	c, err := svc.Claim(ClaimRequest{Owner: "w"})
	if err != nil {
		t.Fatalf("claim with all leases running: %v", err)
	}
	if !c.Wait || c.Done || c.Lease != -1 {
		t.Fatalf("want Wait with every lease healthily claimed, got %+v", c)
	}
}

// TestServiceCompleteAfterExpiry: an owner that went dark long enough to be
// stolen from can still complete — its checkpoint is valid, folding is
// monotone, and done is done. The later thief's completion is idempotent.
func TestServiceCompleteAfterExpiry(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	svc := newTestService(t, t.TempDir())
	if _, err := svc.Register(testRegistration(t, in, space, 4)); err != nil {
		t.Fatalf("register: %v", err)
	}
	if c, err := svc.Claim(ClaimRequest{Owner: "dark"}); err != nil || c.Lease != 0 {
		t.Fatalf("claim: %+v, %v", c, err)
	}
	expireLease(t, svc, 0, "dark", 0)
	thief, err := svc.Claim(ClaimRequest{Owner: "thief"})
	if err != nil || thief.Lease != 0 || !thief.Stolen {
		t.Fatalf("steal: %+v, %v", thief, err)
	}
	// The dark owner finishes anyway and completes after losing the lease.
	ckpt := leaseCheckpointBytes(t, in, space, 0, 4)
	if err := svc.Complete(CompleteRequest{Owner: "dark", Lease: 0, Checkpoint: ckpt}); err != nil {
		t.Fatalf("complete after expiry: %v", err)
	}
	if st := svc.Status().Leases[0]; st.State != leaseStateDone {
		t.Fatalf("lease not done after the dark owner's completion: %+v", st)
	}
	// The thief, unaware, completes too — idempotent, same final state.
	if err := svc.Complete(CompleteRequest{Owner: "thief", Lease: 0, Checkpoint: ckpt}); err != nil {
		t.Fatalf("thief's duplicate completion: %v", err)
	}
	if st := svc.Status().Leases[0]; st.State != leaseStateDone || st.Stolen != 1 {
		t.Fatalf("final lease state: %+v", st)
	}
}

// TestServiceIncompleteCompletionRejected: Complete with a partial
// checkpoint stores the progress but refuses the done marker.
func TestServiceIncompleteCompletionRejected(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	svc := newTestService(t, t.TempDir())
	reg := testRegistration(t, in, space, 4)
	if _, err := svc.Register(reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	if c, err := svc.Claim(ClaimRequest{Owner: "w"}); err != nil || c.Lease != 0 {
		t.Fatalf("claim: %+v, %v", c, err)
	}
	// Evaluate a strict subset of the lease slice.
	n := reg.Designs
	plans, err := sweep.PlanShards(n, 4)
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	hooked := *in
	hooked.EvalHook = func(explorer.Design) error {
		evals++
		if evals == 3 {
			cancel()
		}
		return nil
	}
	path := filepath.Join(t.TempDir(), "partial.json")
	_, err = sweep.Run(ctx, &hooked, space, explorer.RenewablesBatteryCAS, sweep.Options{
		BatchSize:  1,
		Plan:       sweep.Plan{Shard: plans[0].Shard},
		Checkpoint: sweep.CheckpointOptions{Path: path, Every: 1},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("partial sweep: want context.Canceled, got %v", err)
	}
	partial, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading partial checkpoint: %v", err)
	}
	if err := svc.Complete(CompleteRequest{Owner: "w", Lease: 0, Checkpoint: partial}); !errors.Is(err, ErrLeaseIncomplete) {
		t.Fatalf("partial completion: want ErrLeaseIncomplete, got %v", err)
	}
	if st := svc.Status().Leases[0]; st.State == leaseStateDone {
		t.Fatal("partial completion marked the lease done")
	}
	// The progress was kept: the claim path serves it to the next owner.
	expireLease(t, svc, 0, "w", 0)
	c, err := svc.Claim(ClaimRequest{Owner: "next"})
	if err != nil || c.Lease != 0 {
		t.Fatalf("re-claim: %+v, %v", c, err)
	}
	if len(c.Checkpoint) == 0 {
		t.Fatal("stored partial progress was not offered to the thief")
	}
}

// TestServiceStatusDuringActiveSteal: status must tell the operator the
// truth mid-steal — a running lease with a stale heartbeat reports
// "expired", and after the theft it reports running with the bumped count.
func TestServiceStatusDuringActiveSteal(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	svc := newTestService(t, t.TempDir())
	if _, err := svc.Register(testRegistration(t, in, space, 4)); err != nil {
		t.Fatalf("register: %v", err)
	}
	if c, err := svc.Claim(ClaimRequest{Owner: "w"}); err != nil || c.Lease != 0 {
		t.Fatalf("claim: %+v, %v", c, err)
	}
	if st := svc.Status().Leases[0]; st.State != leaseStateRunning {
		t.Fatalf("freshly claimed lease: %+v", st)
	}
	expireLease(t, svc, 0, "w", 0)
	st := svc.Status()
	if got := st.Leases[0]; got.State != leaseStateExpired || got.Owner != "w" {
		t.Fatalf("stale lease should report expired for owner w: %+v", got)
	}
	if st.Expired != 1 {
		t.Fatalf("status counts %d expired leases, want 1", st.Expired)
	}
	if _, err := svc.Claim(ClaimRequest{Owner: "thief"}); err != nil {
		t.Fatalf("steal: %v", err)
	}
	if got := svc.Status().Leases[0]; got.State != leaseStateRunning || got.Owner != "thief" || got.Stolen != 1 {
		t.Fatalf("post-steal lease: %+v", got)
	}
}

// TestServiceRejectsForeignUpload: a checkpoint from a different sweep (or
// the wrong slice) can never pollute coordinator state.
func TestServiceRejectsForeignUpload(t *testing.T) {
	in := testInputs(t)
	space := testSpace(in)
	svc := newTestService(t, t.TempDir())
	if _, err := svc.Register(testRegistration(t, in, space, 4)); err != nil {
		t.Fatalf("register: %v", err)
	}
	if c, err := svc.Claim(ClaimRequest{Owner: "w"}); err != nil || c.Lease != 0 {
		t.Fatalf("claim: %+v, %v", c, err)
	}
	// Wrong slice: lease 1's checkpoint uploaded for lease 0.
	wrongSlice := leaseCheckpointBytes(t, in, space, 1, 4)
	if err := svc.Heartbeat(HeartbeatRequest{Owner: "w", Lease: 0, Checkpoint: wrongSlice}); !errors.Is(err, ErrSweepMismatch) {
		t.Fatalf("wrong-slice upload: want ErrSweepMismatch, got %v", err)
	}
	// Wrong sweep: a different space hashes differently.
	other := space
	other.BatteryHours = []float64{0, 6}
	wrongSweep := leaseCheckpointBytes(t, in, other, 0, 4)
	if err := svc.Heartbeat(HeartbeatRequest{Owner: "w", Lease: 0, Checkpoint: wrongSweep}); !errors.Is(err, ErrSweepMismatch) {
		t.Fatalf("wrong-sweep upload: want ErrSweepMismatch, got %v", err)
	}
	// Garbage is rejected as invalid, not stored.
	if err := svc.Heartbeat(HeartbeatRequest{Owner: "w", Lease: 0, Checkpoint: []byte("{")}); err == nil {
		t.Fatal("garbage upload accepted")
	}
	// Out-of-range lease indices are mismatches, not panics.
	if err := svc.Heartbeat(HeartbeatRequest{Owner: "w", Lease: 99}); !errors.Is(err, ErrSweepMismatch) {
		t.Fatalf("out-of-range lease: want ErrSweepMismatch, got %v", err)
	}
}
