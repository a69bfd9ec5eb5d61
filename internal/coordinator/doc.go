// Package coordinator schedules a design-space sweep across workers with
// work stealing, so heterogeneous or flaky fleets do not stall on their
// slowest member.
//
// The static `optimize -shard i/N` partition assigns each worker one fixed
// slice; a worker that is 4× slower — or dies — makes its slice the
// sweep's critical path. The coordinator instead splits the enumeration
// into many small leases (far more leases than workers, via
// sweep.PlanShards) and hands them out dynamically: a fast worker that
// drains its lease simply claims the next one, so the wall-clock tracks
// aggregate throughput instead of the slowest slice.
//
// Three transports share one entry point, Run, and one worker loop: every
// worker claims a lease, runs sweep.Run over the lease's shard slice,
// completes the lease and claims the next, whatever the leases live in.
//
//   - In-process (Options.LeaseDir and Options.Endpoint empty): the leases
//     live in memory. They are handed out in order, never expire, and
//     write no files; each lease's Result stays in memory, and the Results
//     fold in lease order through sweep.MergeResults — reproducing the
//     single-process optimum, frontier, and failure ordering exactly. A
//     lease cancellation cut short is folded but not counted as completed.
//
//   - Lease directory (Options.LeaseDir set): workers — possibly in
//     different processes started independently — coordinate through
//     atomic lease files in the directory. A worker claims a lease by
//     writing lease-i-of-L.json (owner + heartbeat timestamp, written
//     through sweep.WriteFileAtomic so a crash never leaves a torn claim),
//     heartbeats while evaluating, checkpoints the lease's slice to
//     lease-i-of-L.ckpt.json, and marks the lease done. A running lease
//     whose heartbeat has gone stale past Options.Expiry is stolen: the
//     thief resumes the dead owner's per-lease checkpoint, so completed
//     designs are restored, not re-evaluated. When every lease is done the
//     checkpoints fold through sweep.MergeCheckpoints into one resumable
//     merged checkpoint, and the Result is restored from it.
//
//   - Network (Options.Endpoint set): the same claim/heartbeat/steal
//     protocol against an HTTP coordinator (Service), which holds the lease
//     checkpoints and builds the merged checkpoint the Result is restored
//     from, exactly as in lease-directory mode.
//
// Determinism is inherited, not re-proven: evaluation is deterministic,
// per-lease checkpoints only ever move designs forward, and both merge
// paths fold in ascending slice order — so a coordinated sweep (even one
// with killed workers, stolen leases, and duplicate evaluations from a
// benign claim race) converges to the byte-identical optimum and Pareto
// frontier of an uninterrupted single-process sweep. The chaos tests in
// this package prove exactly that.
package coordinator
