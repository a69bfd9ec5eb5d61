// Package sweep is the streaming, checkpointable, retrying design-space
// sweep engine — the production-scale version of the exhaustive search in
// Section 5.2 of the paper (the search behind Figures 14 and 15), built for
// grids far denser than the paper's 7×7×6×5 example.
//
// explorer.Search materializes one Outcome per design and keeps them all;
// over a dense Space that is gigabytes of state, and an interrupted sweep
// forgets everything. This package evaluates designs in bounded batches and
// folds each outcome into exactly two accumulators — the running carbon
// optimum and the running Pareto frontier (explorer.ParetoSet) — so resident
// memory is O(batch + frontier) regardless of grid density. Designs whose
// evaluation fails transiently are retried once before being excluded from
// the optimum, and progress persists across process deaths via a versioned
// JSON checkpoint.
//
// # Sharding
//
// A sweep can be split across workers with Plan.Shard. Shard i/N claims
// the i-th of N contiguous slices of the design enumeration (Shard.Bounds,
// PlanShards); the partition is a pure function of the enumeration length
// and N, so workers on separate machines agree on it with no coordination
// beyond the i/N label. Each shard folds only its own slice but writes a
// full-length status string (out-of-shard designs stay pending), which is
// what makes shard checkpoints mergeable: MergeCheckpoints joins any set of
// shard checkpoints — complete or partial, even overlapping attempts of the
// same shard — into one ordinary unsharded checkpoint that Run with
// Options.Checkpoint.Resume accepts directly. Because the Pareto fold is associative
// (frontier(A ∪ B) = frontier(frontier(A) ∪ frontier(B))) and merge folds
// inputs in slice order, the merged optimum and frontier are identical to a
// single-process sweep's, tie-breaking included. Lost-shard recovery is
// therefore just: merge the surviving checkpoints, resume the merged file.
//
// # Checkpoint format
//
// The checkpoint is a single JSON document. Writers emit schema version 2;
// the loader accepts versions 1 and 2.
//
//	{
//	 "version": 2,
//	 "space_hash": "<fnv64a over site, strategy, inputs fingerprint, and every design>",
//	 "site": "UT",
//	 "strategy": 3,
//	 "designs": 1960,               // enumeration length (v2)
//	 "shard": "2/3",                // writing shard, "" / absent if unsharded (v2)
//	 "status": "653P650D1F656P",    // run-length encoded, in enumeration order (v2)
//	 "retried": 1, "recovered": 1,  // retry-pass accounting
//	 "best": {...},                 // running optimum (compact outcome)
//	 "frontier": [{...}, ...],      // running Pareto frontier
//	 "failures": [{"design": ..., "index": 1303, "error": "...", "permanent": false}]
//	}
//
// Status runes: P pending, D done, F failed once (retry pending), X failed
// permanently. Version 1 stored the status as one raw rune per design
// ("DDDDFPPP..."); version 2 run-length encodes it as count+rune pairs
// ("4D1F3P"), which collapses the realistic shape — long done prefix, few
// scattered failures, long pending tail — to a few dozen bytes even for
// multi-million-design spaces (the ROADMAP checkpoint-compaction item).
// Version 2 also records the enumeration length ("designs"), the writing
// shard's i/N label, and each failure's enumeration index (so a merge can
// drop failure records that a later attempt completed; v1 files load with
// index -1, meaning unknown).
//
// The space hash fingerprints everything that determines the enumeration,
// so a checkpoint can never be resumed against a different site, strategy,
// space, or input year — and shards of different sweeps can never merge.
// Note the hash covers the FULL enumeration, not the shard's slice: all
// shards of one sweep share it. Saves are atomic (write-temp-then-rename)
// and happen every Options.Checkpoint.Every evaluated designs, on
// cancellation, and on completion.
//
// Outcomes in the checkpoint (and in the streamed fold) drop the hourly
// battery state-of-charge trace; re-Evaluate a design to recover one.
//
// # Resume semantics
//
// Run with Options.Checkpoint.Resume loads the checkpoint, restores the fold state,
// skips every done design, and retries failed-once designs. Because designs
// are folded in deterministic enumeration order, a sweep killed at any point
// and resumed converges to the same optimum and the same Pareto frontier as
// an uninterrupted run — the property the faultinject chaos tests enforce.
//
// Shard labels are checked on resume: shard i/N resumes its own checkpoint,
// an unsharded run may adopt any shard's checkpoint whole (lost-shard
// recovery), and a sharded run may resume an unsharded or merged checkpoint
// (re-splitting the remainder); resuming shard i/N's file as a different
// shard j/M is rejected with ErrCheckpointMismatch, because the designs
// between the two slices would be silently orphaned.
package sweep
