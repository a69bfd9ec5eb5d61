package coordinator

// Service is the transport-agnostic lease-coordination core: the same
// claim / heartbeat / complete / status protocol the file-based board runs
// over a shared mount, extracted so a stdlib HTTP server (httpserver.go)
// can offer it to workers with no common filesystem at all.
//
// Every piece of coordinator state is persisted through the existing
// versioned atomic checkpoint machinery — the lease files and per-lease
// sweep checkpoints of the file protocol, plus one state.json describing
// the registered sweep — so a killed-and-restarted coordinator resumes its
// fleet: workers re-register idempotently, done leases stay done, and
// in-flight leases either keep heartbeating (their owners never noticed the
// outage) or expire and are stolen. No wall-clock reads happen here; all
// liveness arithmetic stays in lease.go, the package's one detrand-exempt
// file.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"carbonexplorer/internal/sweep"
)

// Service errors, surfaced over HTTP as structured error codes (see
// httpserver.go) so clients can dispatch on them with errors.Is after the
// round trip.
var (
	// ErrNotRegistered reports a claim/heartbeat/complete/checkpoint call
	// before any worker registered a sweep. Workers react by
	// (re-)registering — the crash-recovery path after a coordinator
	// restart that lost its state directory.
	ErrNotRegistered = errors.New("coordinator: no sweep registered")
	// ErrSweepMismatch reports a request describing a different sweep than
	// the one registered (space hash, design count, or lease geometry
	// disagree). It is never retried: the worker is pointed at the wrong
	// coordinator or built a different space.
	ErrSweepMismatch = errors.New("coordinator: sweep mismatch")
	// ErrLeaseIncomplete reports a complete call whose uploaded checkpoint
	// does not actually finish the lease's slice; the lease stays running
	// and will expire back into the pool.
	ErrLeaseIncomplete = errors.New("coordinator: lease checkpoint incomplete")
	// ErrLivenessConfig reports a lease TTL too close to the worker's
	// heartbeat interval: scheduling jitter would get leases stolen from
	// live workers. The TTL must be at least HeartbeatSafetyFactor
	// heartbeats.
	ErrLivenessConfig = errors.New("coordinator: lease TTL too close to heartbeat interval")
	// ErrNoProgress reports a merged-checkpoint request before any lease
	// uploaded progress.
	ErrNoProgress = errors.New("coordinator: no lease progress recorded yet")
)

// HeartbeatSafetyFactor is the minimum ratio of lease TTL to heartbeat
// interval: below it, ordinary scheduling jitter (a GC pause, a slow disk)
// reads as worker death and live leases get stolen.
const HeartbeatSafetyFactor = 3

// stateVersion is the on-disk coordinator state schema version.
const stateVersion = 1

// stateFile is the persisted registration record: everything a restarted
// coordinator needs to rebuild its lease board for the same sweep.
type stateFile struct {
	Version   int    `json:"version"`
	SpaceHash string `json:"space_hash"`
	Site      string `json:"site"`
	Strategy  int    `json:"strategy"`
	Designs   int    `json:"designs"`
	Leases    int    `json:"leases"`
}

// --- Wire types -------------------------------------------------------------

// RegisterRequest announces a worker and the sweep it intends to join. The
// first registration fixes the sweep; later ones (including re-registration
// after a coordinator restart) are idempotent as long as they describe the
// same space.
type RegisterRequest struct {
	// Owner is the worker's owner-label prefix, for operator-facing logs.
	Owner string `json:"owner"`
	// SpaceHash fingerprints the sweep (sweep.SpaceHash); workers and
	// coordinator must agree on it exactly.
	SpaceHash string `json:"space_hash"`
	// Site and Strategy describe the sweep for status reporting.
	Site     string `json:"site"`
	Strategy int    `json:"strategy"`
	// Designs is the enumeration length; with Leases it determines the
	// deterministic sweep.PlanShards partition both sides compute.
	Designs int `json:"designs"`
	// Leases is the worker's proposed lease count. The first registrant's
	// proposal wins (unless the coordinator pins one); the response carries
	// the authoritative count every worker must re-plan with.
	Leases int `json:"leases"`
	// HeartbeatMS is the worker's heartbeat interval in milliseconds, so
	// the coordinator can reject a liveness configuration whose TTL is too
	// tight (see HeartbeatSafetyFactor).
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// RegisterResponse carries the coordinator's authoritative sweep geometry.
type RegisterResponse struct {
	// Leases is the authoritative lease count; workers re-plan their
	// shards with it.
	Leases int `json:"leases"`
	// ExpiryMS is the coordinator's lease TTL in milliseconds.
	ExpiryMS int64 `json:"expiry_ms"`
	// Complete reports the registered sweep was already finished and
	// archived by an earlier generation (an adaptive refinement round a
	// faster fleet moved past). The worker should fetch the archived merged
	// checkpoint for its space hash and evaluate nothing.
	Complete bool `json:"complete,omitempty"`
}

// ClaimRequest asks for the next available lease.
type ClaimRequest struct {
	Owner string `json:"owner"`
}

// ClaimResponse is the outcome of a claim: a lease to work on, "wait"
// (every remaining lease is healthily running elsewhere), or "done" (the
// sweep is complete).
type ClaimResponse struct {
	// Lease is the claimed 0-based lease index; -1 when Wait or Done.
	Lease int `json:"lease"`
	// Shard is the lease's "i/L" slice label, for cross-checking the
	// worker's own plan.
	Shard string `json:"shard,omitempty"`
	// Stolen reports the claim reclaimed an expired or corrupt lease.
	Stolen bool `json:"stolen,omitempty"`
	// Done reports every lease is complete; the worker should fetch the
	// merged checkpoint and stop.
	Done bool `json:"done,omitempty"`
	// Wait reports no lease is claimable right now; poll again after a
	// heartbeat interval.
	Wait bool `json:"wait,omitempty"`
	// Checkpoint is the lease's last uploaded sweep checkpoint, if any —
	// the stolen-lease resume path: the thief folds it instead of
	// re-evaluating the dead owner's designs.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// HeartbeatRequest refreshes a claimed lease's liveness and optionally
// ships the worker's current partial checkpoint so progress survives the
// worker's death.
type HeartbeatRequest struct {
	Owner string `json:"owner"`
	Lease int    `json:"lease"`
	// Checkpoint, when non-empty, is the lease's current partial sweep
	// checkpoint. The coordinator folds it into its stored copy — a
	// monotone merge, so a stale upload can never regress progress.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// CompleteRequest publishes a finished lease with its final checkpoint.
type CompleteRequest struct {
	Owner      string          `json:"owner"`
	Lease      int             `json:"lease"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// LeaseStatus is one lease's row in a status report.
type LeaseStatus struct {
	Lease  int    `json:"lease"`
	Shard  string `json:"shard"`
	State  string `json:"state"` // pending | running | expired | corrupt | done
	Owner  string `json:"owner,omitempty"`
	Stolen int    `json:"stolen,omitempty"`
	// AgeMS is the heartbeat age for running and expired leases.
	AgeMS int64 `json:"age_ms,omitempty"`
}

// StatusResponse is the coordinator's fleet-wide progress report.
type StatusResponse struct {
	Registered bool   `json:"registered"`
	SpaceHash  string `json:"space_hash,omitempty"`
	Site       string `json:"site,omitempty"`
	Strategy   int    `json:"strategy,omitempty"`
	Designs    int    `json:"designs,omitempty"`
	LeaseCount int    `json:"lease_count,omitempty"`
	ExpiryMS   int64  `json:"expiry_ms"`
	// Done, Running, Expired, Corrupt, and Pending count leases by state.
	Done    int `json:"done"`
	Running int `json:"running"`
	Expired int `json:"expired"`
	Corrupt int `json:"corrupt"`
	Pending int `json:"pending"`
	// Complete reports every lease done.
	Complete bool `json:"complete"`
	// Leases lists per-lease detail in lease order.
	Leases []LeaseStatus `json:"leases,omitempty"`
}

// --- Service ----------------------------------------------------------------

// ServiceOptions configures a lease service.
type ServiceOptions struct {
	// Expiry is the lease TTL: how stale a running lease's heartbeat must
	// be before a claim may steal it (default 10s).
	Expiry time.Duration
	// Leases, when > 0, pins the lease count regardless of what the first
	// registrant proposes.
	Leases int
}

// Service is the lease-coordination core shared by every transport. All
// state lives in the state directory via atomic writes, so the service
// itself can die and restart at any point without losing its fleet.
type Service struct {
	dir    string
	expiry time.Duration
	pinned int // pinned lease count, 0 = first registrant decides

	// mu serializes registration and checkpoint-upload merges; the board
	// has its own lock for lease claims. The protocol is
	// short-critical-section by design, so one lock is plenty at fleet
	// scale.
	mu    sync.Mutex
	meta  *stateFile
	b     *board
	plans []sweep.ShardPlan
}

// NewService opens (or creates) a lease service over the given state
// directory. If a previous coordinator registered a sweep there, its state
// is reloaded and the fleet resumes where it left off.
func NewService(stateDir string, opts ServiceOptions) (*Service, error) {
	if stateDir == "" {
		return nil, fmt.Errorf("coordinator: service needs a state directory")
	}
	if opts.Expiry <= 0 {
		opts.Expiry = 10 * time.Second
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, fmt.Errorf("coordinator: creating state directory: %w", err)
	}
	s := &Service{dir: stateDir, expiry: opts.Expiry, pinned: opts.Leases}
	if err := s.loadState(); err != nil {
		return nil, err
	}
	return s, nil
}

// statePath is the persisted registration record.
func (s *Service) statePath() string { return filepath.Join(s.dir, "state.json") }

// MergedCheckpointPath returns the merged sweep checkpoint path inside a
// coordination state (or lease) directory. Both coordination modes fold
// shard checkpoints into this file; downstream consumers — `optimize
// -resume`, `serve -state` — read it from here rather than guessing the
// name.
func MergedCheckpointPath(stateDir string) string { return filepath.Join(stateDir, "merged.json") }

// mergedPath is the merged sweep checkpoint.
func (s *Service) mergedPath() string { return MergedCheckpointPath(s.dir) }

// loadState restores a previous coordinator's registration, if present.
func (s *Service) loadState() error {
	data, err := os.ReadFile(s.statePath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("coordinator: reading state: %w", err)
	}
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("coordinator: decoding state %s: %w", s.statePath(), err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("coordinator: state %s has version %d, this build reads %d", s.statePath(), st.Version, stateVersion)
	}
	return s.adopt(&st)
}

// adopt installs a registration: plans the lease partition and opens the
// board over the state directory.
func (s *Service) adopt(st *stateFile) error {
	plans, err := sweep.PlanShards(st.Designs, st.Leases)
	if err != nil {
		return fmt.Errorf("coordinator: planning %d leases over %d designs: %w", st.Leases, st.Designs, err)
	}
	b, err := newBoard(s.dir, plans, s.expiry/HeartbeatSafetyFactor, s.expiry)
	if err != nil {
		return err
	}
	s.meta, s.b, s.plans = st, b, plans
	return nil
}

// Register announces a worker. The first registration fixes the sweep and
// persists it; later registrations validate against it and receive the
// authoritative geometry. Safe to call any number of times — workers
// re-register after a coordinator restart.
func (s *Service) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.SpaceHash == "" || req.Designs <= 0 {
		return RegisterResponse{}, fmt.Errorf("%w: registration needs a space hash and a positive design count", ErrSweepMismatch)
	}
	if req.HeartbeatMS > 0 && s.expiry.Milliseconds() < HeartbeatSafetyFactor*req.HeartbeatMS {
		return RegisterResponse{}, fmt.Errorf("%w: TTL %v < %d × heartbeat %dms", ErrLivenessConfig, s.expiry, HeartbeatSafetyFactor, req.HeartbeatMS)
	}
	s.lock()
	defer s.unlock()
	if s.meta != nil && s.meta.SpaceHash == req.SpaceHash && s.meta.Designs == req.Designs {
		return RegisterResponse{Leases: s.meta.Leases, ExpiryMS: s.expiry.Milliseconds()}, nil
	}
	// A hash the service has already finished and archived — a lagging fleet
	// registering a refinement round the coordinator moved past — is
	// answered with Complete; the worker fetches the archived fold instead
	// of evaluating.
	if _, err := os.Stat(s.archivePath(req.SpaceHash)); err == nil {
		leases := req.Leases
		if leases <= 0 {
			leases = 1
		}
		return RegisterResponse{Leases: leases, ExpiryMS: s.expiry.Milliseconds(), Complete: true}, nil
	}
	if s.meta != nil {
		// A different sweep on a busy coordinator: advance the generation if
		// the current one is finished (the adaptive round-to-round
		// handshake), reject otherwise.
		if err := s.advanceGeneration(req); err != nil {
			return RegisterResponse{}, err
		}
	}
	leases := req.Leases
	if s.pinned > 0 {
		leases = s.pinned
	}
	if leases <= 0 {
		leases = 1
	}
	if leases > req.Designs {
		leases = req.Designs
	}
	st := &stateFile{
		Version:   stateVersion,
		SpaceHash: req.SpaceHash,
		Site:      req.Site,
		Strategy:  req.Strategy,
		Designs:   req.Designs,
		Leases:    leases,
	}
	if err := s.adopt(st); err != nil {
		return RegisterResponse{}, err
	}
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return RegisterResponse{}, fmt.Errorf("coordinator: encoding state: %w", err)
	}
	if err := sweep.WriteFileAtomic(s.statePath(), append(data, '\n')); err != nil {
		s.meta, s.b, s.plans = nil, nil, nil
		return RegisterResponse{}, err
	}
	return RegisterResponse{Leases: st.Leases, ExpiryMS: s.expiry.Milliseconds()}, nil
}

// archivePath is the immutable merged checkpoint of a finished generation,
// keyed by its space hash. Adaptive refinements leave one file per completed
// round behind, so any fleet — however far behind — can replay the rounds it
// missed from the archive.
func (s *Service) archivePath(hash string) string {
	return filepath.Join(s.dir, "merged-"+hash+".json")
}

// advanceGeneration retires the current registration in favor of req's
// sweep: the current generation's merged fold is archived under its space
// hash and its board is wiped, leaving the service unregistered for the
// caller to adopt the new sweep. It refuses while the current generation
// still has work left — an in-progress sweep is never abandoned for a new
// one. Caller holds s.mu.
//
// Crash safety: the archive write is atomic and happens first. A crash
// between the archive and the new registration leaves the old state.json in
// place with its lease files gone — the old generation re-registers
// idempotently and, at worst, re-evaluates; nothing is ever silently wrong.
func (s *Service) advanceGeneration(req RegisterRequest) error {
	if req.SpaceHash == s.meta.SpaceHash {
		return fmt.Errorf("%w: registered sweep has space hash %s over %d designs; worker %q brings %s over %d",
			ErrSweepMismatch, s.meta.SpaceHash, s.meta.Designs, req.Owner, req.SpaceHash, req.Designs)
	}
	data, complete, err := s.mergedLocked()
	if err != nil || !complete {
		return fmt.Errorf("%w: registered sweep (space hash %s over %d designs) is still in progress; worker %q brings %s over %d",
			ErrSweepMismatch, s.meta.SpaceHash, s.meta.Designs, req.Owner, req.SpaceHash, req.Designs)
	}
	if err := sweep.WriteFileAtomic(s.archivePath(s.meta.SpaceHash), data); err != nil {
		return fmt.Errorf("coordinator: archiving finished generation: %w", err)
	}
	s.b.reset()
	_ = os.Remove(s.mergedPath())
	s.meta, s.b, s.plans = nil, nil, nil
	return nil
}

// mergedLocked folds every stored per-lease checkpoint into the merged
// checkpoint and returns its bytes plus completeness. Caller holds s.mu.
func (s *Service) mergedLocked() (data []byte, complete bool, err error) {
	srcs := s.b.existingCheckpoints()
	if len(srcs) == 0 {
		if data, err := os.ReadFile(s.mergedPath()); err == nil {
			return data, true, nil
		}
		return nil, false, ErrNoProgress
	}
	rep, err := sweep.MergeCheckpoints(s.mergedPath(), srcs...)
	if err != nil {
		return nil, false, err
	}
	data, err = os.ReadFile(s.mergedPath())
	if err != nil {
		return nil, false, fmt.Errorf("coordinator: reading merged checkpoint: %w", err)
	}
	return data, rep.Complete(), nil
}

func (s *Service) lock()   { s.mu.Lock() }
func (s *Service) unlock() { s.mu.Unlock() }

// registered snapshots the current registration under the lock. The three
// fields are only ever replaced together by Register, so a consistent
// snapshot is all any read path needs.
func (s *Service) registered() (*stateFile, *board, []sweep.ShardPlan) {
	s.lock()
	defer s.unlock()
	return s.meta, s.b, s.plans
}

// Claim hands out the next available lease along with its last uploaded
// checkpoint, so a stolen lease resumes instead of restarting.
func (s *Service) Claim(req ClaimRequest) (ClaimResponse, error) {
	meta, b, plans := s.registered()
	if meta == nil {
		return ClaimResponse{}, ErrNotRegistered
	}
	t, done, err := b.claim(req.Owner)
	if err != nil {
		return ClaimResponse{}, err
	}
	if t == nil {
		return ClaimResponse{Lease: -1, Done: done, Wait: !done}, nil
	}
	resp := ClaimResponse{Lease: t.lease, Shard: plans[t.lease].Shard.String(), Stolen: t.stolen}
	if data, err := os.ReadFile(b.checkpointPath(t.lease)); err == nil {
		resp.Checkpoint = data
	}
	return resp, nil
}

// Heartbeat refreshes a lease's liveness and folds any shipped partial
// checkpoint into the stored copy. Folding is monotone (statuses only move
// forward), so a stale owner racing a thief can slow nothing down and
// regress nothing — the same benign-race semantics the file protocol has.
func (s *Service) Heartbeat(req HeartbeatRequest) error {
	meta, b, plans := s.registered()
	if meta == nil {
		return ErrNotRegistered
	}
	if err := checkLease(req.Lease, plans); err != nil {
		return err
	}
	if err := s.storeUpload(meta, b, plans, req.Lease, req.Checkpoint); err != nil {
		return err
	}
	return b.refresh(req.Lease, req.Owner)
}

// Complete publishes a lease as done after verifying its uploaded
// checkpoint truly finishes the slice; an incomplete upload is stored (it
// still moves progress forward) but the lease stays running and will
// expire back into the pool.
func (s *Service) Complete(req CompleteRequest) error {
	meta, b, plans := s.registered()
	if meta == nil {
		return ErrNotRegistered
	}
	if err := checkLease(req.Lease, plans); err != nil {
		return err
	}
	if err := s.storeUpload(meta, b, plans, req.Lease, req.Checkpoint); err != nil {
		return err
	}
	// The stored per-lease checkpoint is a merged (hence unsharded) file, so
	// count statuses inside the lease's own slice, not the file's label.
	p, err := sweep.ProgressWithin(b.checkpointPath(req.Lease), plans[req.Lease].Shard)
	if err != nil {
		return err
	}
	if p.Pending > 0 || p.FailedOnce > 0 {
		return fmt.Errorf("%w: lease %d has %d pending and %d retryable designs after upload",
			ErrLeaseIncomplete, req.Lease, p.Pending, p.FailedOnce)
	}
	return b.finish(req.Lease, req.Owner)
}

// checkLease validates a lease index against the registered geometry.
func checkLease(li int, plans []sweep.ShardPlan) error {
	if li < 0 || li >= len(plans) {
		return fmt.Errorf("%w: lease %d outside [0, %d)", ErrSweepMismatch, li, len(plans))
	}
	return nil
}

// storeUpload folds uploaded checkpoint bytes into the lease's stored
// checkpoint. The existing merge machinery does the heavy lifting: statuses
// join monotonically and mismatched sweeps are rejected, so no upload can
// corrupt or regress coordinator state.
func (s *Service) storeUpload(meta *stateFile, b *board, plans []sweep.ShardPlan, li int, payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	// Serialize the read-merge-write below: two concurrent uploads for the
	// same lease must fold sequentially or one's progress could be dropped.
	s.lock()
	defer s.unlock()
	staged := filepath.Join(s.dir, fmt.Sprintf("upload-%04d.json", li+1))
	if err := sweep.WriteFileAtomic(staged, payload); err != nil {
		return err
	}
	defer func() {
		// Best-effort: a leftover staging file is re-written by the next
		// upload for this lease.
		_ = os.Remove(staged)
	}()
	// Progress only counts the status runs; the merge below decodes them into
	// one byte per design, so compare the count with the registered one first.
	p, err := sweep.Progress(staged)
	if err != nil {
		return fmt.Errorf("coordinator: lease %d upload is not a valid checkpoint: %w", li, err)
	}
	if p.SpaceHash != meta.SpaceHash {
		return fmt.Errorf("%w: lease %d upload has space hash %s, sweep has %s", ErrSweepMismatch, li, p.SpaceHash, meta.SpaceHash)
	}
	if p.Designs != meta.Designs {
		return fmt.Errorf("%w: lease %d upload covers %d designs, sweep has %d", sweep.ErrCheckpointMismatch, li, p.Designs, meta.Designs)
	}
	want := plans[li].Shard
	if !p.Shard.IsZero() && p.Shard != want {
		return fmt.Errorf("%w: lease %d upload covers shard %s, want %s", ErrSweepMismatch, li, p.Shard, want)
	}
	dst := b.checkpointPath(li)
	srcs := []string{staged}
	if _, err := os.Stat(dst); err == nil {
		srcs = []string{dst, staged}
	}
	if _, err := sweep.MergeCheckpoints(dst, srcs...); err != nil {
		return fmt.Errorf("coordinator: folding lease %d upload: %w", li, err)
	}
	return nil
}

// Status reports fleet-wide progress without mutating anything.
func (s *Service) Status() StatusResponse {
	resp := StatusResponse{ExpiryMS: s.expiry.Milliseconds()}
	meta, b, plans := s.registered()
	if meta == nil {
		return resp
	}
	resp.Registered = true
	resp.SpaceHash = meta.SpaceHash
	resp.Site = meta.Site
	resp.Strategy = meta.Strategy
	resp.Designs = meta.Designs
	resp.LeaseCount = meta.Leases
	for li := range plans {
		snap := b.snapshot(li)
		resp.Leases = append(resp.Leases, LeaseStatus{
			Lease:  li,
			Shard:  plans[li].Shard.String(),
			State:  snap.state,
			Owner:  snap.owner,
			Stolen: snap.stolen,
			AgeMS:  snap.ageMS,
		})
		switch snap.state {
		case leaseStateDone:
			resp.Done++
		case leaseStateRunning:
			resp.Running++
		case leaseStateExpired:
			resp.Expired++
		case leaseStateCorrupt:
			resp.Corrupt++
		default:
			resp.Pending++
		}
	}
	resp.Complete = len(plans) > 0 && resp.Done == len(plans)
	return resp
}

// MergedCheckpoint folds every stored per-lease checkpoint into the merged
// checkpoint and returns its bytes, plus whether the sweep is complete.
// Callable at any point: mid-sweep it returns the partial fold a cancelled
// fleet can restore from.
func (s *Service) MergedCheckpoint() (data []byte, complete bool, err error) {
	s.lock()
	defer s.unlock()
	if s.meta == nil {
		return nil, false, ErrNotRegistered
	}
	return s.mergedLocked()
}

// MergedCheckpointFor returns the merged checkpoint for the given space
// hash: the current generation's fold if the hash matches it, or the
// archived fold of a finished generation. An unknown hash returns
// ErrNoProgress.
func (s *Service) MergedCheckpointFor(hash string) ([]byte, error) {
	s.lock()
	defer s.unlock()
	if s.meta != nil && s.meta.SpaceHash == hash {
		data, _, err := s.mergedLocked()
		return data, err
	}
	data, err := os.ReadFile(s.archivePath(hash))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: no checkpoint for space hash %s", ErrNoProgress, hash)
		}
		return nil, fmt.Errorf("coordinator: reading archived checkpoint: %w", err)
	}
	return data, nil
}
