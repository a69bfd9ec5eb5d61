package faultinject

// Chaos tests: inject every class of fault into each stage of the pipeline
// and prove the fault surfaces as a typed error or a documented repair —
// never a panic, never a silent wrong number.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/dcload"
	"carbonexplorer/internal/eiacsv"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/fleet"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/scheduler"
	"carbonexplorer/internal/sweep"
	"carbonexplorer/internal/timeseries"
)

// chaosInputs builds a small (10-day) but fully functional evaluation input.
func chaosInputs(t *testing.T) *explorer.Inputs {
	t.Helper()
	const n = 240
	demand := timeseries.Generate(n, func(h int) float64 { return 10 + 2*math.Sin(float64(h%24)/24*2*math.Pi) })
	wind := timeseries.Generate(n, func(h int) float64 { return 5 + 4*math.Sin(float64(h)/17) })
	solar := timeseries.Generate(n, func(h int) float64 { return math.Max(0, 8*math.Sin((float64(h%24)-6)/12*math.Pi)) })
	ci := timeseries.Constant(n, 400)
	in, err := explorer.NewInputsFromSeries(grid.MustSite("UT"), demand, wind, solar, ci, carbon.DefaultEmbodiedParams())
	if err != nil {
		t.Fatalf("chaosInputs: %v", err)
	}
	return in
}

func chaosSpace(in *explorer.Inputs) explorer.Space {
	avg := in.AvgDemandMW()
	return explorer.Space{
		WindMW:             []float64{0, avg, 2 * avg, 4 * avg, 8 * avg},
		SolarMW:            []float64{0, avg, 2 * avg, 4 * avg, 8 * avg},
		BatteryHours:       []float64{0, 2},
		ExtraCapacityFracs: []float64{0, 0.25},
		DoD:                1.0,
		FlexibleRatio:      0.4,
	}
}

// TestChaosSweepPartialFailure is the acceptance scenario: ~10% of designs
// forced to fail must not sink the sweep — the optimum is computed over the
// survivors and the report lists every failure with its design.
func TestChaosSweepPartialFailure(t *testing.T) {
	in := chaosInputs(t)
	space := chaosSpace(in)

	clean, err := in.Search(space, explorer.RenewablesBatteryCAS)
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
	total := clean.Report.Evaluated

	in.EvalHook = DesignFaults(123, 0.10)
	res, err := in.Search(space, explorer.RenewablesBatteryCAS)
	if err != nil {
		t.Fatalf("faulty sweep should degrade gracefully, got %v", err)
	}
	if len(res.Report.Failures) == 0 {
		t.Fatal("no injected failures recorded; raise the fraction or reseed")
	}
	if res.Report.Evaluated+len(res.Report.Failures) != total {
		t.Fatalf("report does not account for all designs: %d + %d != %d",
			res.Report.Evaluated, len(res.Report.Failures), total)
	}
	if len(res.Points) != res.Report.Evaluated {
		t.Fatalf("Points (%d) != Evaluated (%d)", len(res.Points), res.Report.Evaluated)
	}
	for _, f := range res.Report.Failures {
		if !errors.Is(f, ErrInjected) {
			t.Fatalf("failure not traceable to injection: %v", f)
		}
	}
	// The optimum is genuinely optimal over the survivors.
	for _, p := range res.Points {
		if p.Total() < res.Optimal.Total() {
			t.Fatalf("survivor %v beats reported optimum %v", p.Total(), res.Optimal.Total())
		}
	}
	// And no silent wrong number: the degraded optimum is a point the clean
	// sweep also evaluated, never something fabricated.
	if res.Optimal.Total() < clean.Optimal.Total() {
		t.Fatalf("degraded sweep found a better optimum (%v) than the clean sweep (%v)",
			res.Optimal.Total(), clean.Optimal.Total())
	}
}

// TestChaosSweepPanicContainment proves a panicking evaluation is contained
// to its design: the process survives and the panic surfaces as a typed
// *explorer.PanicError for that design alone.
func TestChaosSweepPanicContainment(t *testing.T) {
	in := chaosInputs(t)
	in.EvalHook = PanicFaults(7, 0.2)
	res, err := in.Search(chaosSpace(in), explorer.RenewablesBatteryCAS)
	if err != nil {
		t.Fatalf("panicking designs should not sink the sweep: %v", err)
	}
	if len(res.Report.Failures) == 0 {
		t.Fatal("no panics recorded; raise the fraction or reseed")
	}
	for _, f := range res.Report.Failures {
		var pe *explorer.PanicError
		if !errors.As(f.Err, &pe) {
			t.Fatalf("panic not recovered into *PanicError: %v", f.Err)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("recovered panic lost its stack")
		}
	}
}

// TestChaosSweepAllFail: when every design fails, the sweep must say so
// with a typed error rather than fabricate an optimum.
func TestChaosSweepAllFail(t *testing.T) {
	in := chaosInputs(t)
	in.EvalHook = DesignFaults(1, 1.1)
	_, err := in.Search(chaosSpace(in), explorer.RenewablesOnly)
	if !errors.Is(err, explorer.ErrAllDesignsFailed) {
		t.Fatalf("want ErrAllDesignsFailed, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("first failure should be traceable to injection: %v", err)
	}
}

// TestChaosSweepCancellation: a cancelled sweep returns partial results and
// accounts for every skipped design.
func TestChaosSweepCancellation(t *testing.T) {
	in := chaosInputs(t)
	space := chaosSpace(in)
	clean, err := in.Search(space, explorer.RenewablesBatteryCAS)
	if err != nil {
		t.Fatal(err)
	}
	total := clean.Report.Evaluated

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := in.SearchContext(ctx, space, explorer.RenewablesBatteryCAS)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Report.Evaluated+len(res.Report.Failures)+res.Report.Skipped != total {
		t.Fatalf("cancelled report does not account for all %d designs: %+v", total, res.Report)
	}
	if res.Report.Skipped == 0 {
		t.Fatal("pre-cancelled sweep skipped nothing")
	}
}

// TestChaosSweepKillResume is the checkpoint acceptance scenario: a
// streaming sweep killed repeatedly mid-run (a crash loop) and resumed from
// its checkpoint each time must converge to exactly the optimum and Pareto
// frontier of an uninterrupted sweep — while transient evaluation faults are
// being injected on top.
func TestChaosSweepKillResume(t *testing.T) {
	in := chaosInputs(t)
	space := chaosSpace(in)
	ckpt := filepath.Join(t.TempDir(), "chaos.json")

	clean, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{})
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}

	// Crash loop: each attempt is killed after `killAfter` evaluations by
	// cancelling its context from the eval hook, which also injects
	// transient failures into ~15% of designs. Checkpointing is frequent so
	// each life makes progress.
	transient := TransientFaults(77, 0.15)
	var final sweep.Result
	attempts := 0
	for {
		attempts++
		if attempts > 50 {
			t.Fatal("crash loop did not converge in 50 lives")
		}
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		evals := 0
		const killAfter = 12
		in.EvalHook = func(d explorer.Design) error {
			mu.Lock()
			evals++
			if evals == killAfter {
				cancel()
			}
			mu.Unlock()
			return transient(d)
		}
		res, err := sweep.Run(ctx, in, space, explorer.RenewablesBatteryCAS,
			sweep.Options{BatchSize: 4, Checkpoint: sweep.CheckpointOptions{Path: ckpt, Every: 4, Resume: true}})
		cancel()
		if err == nil {
			final = res
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("life %d died of something other than the injected kill: %v", attempts, err)
		}
	}
	if attempts < 2 {
		t.Fatal("sweep finished in one life — the kill never fired, nothing was chaos-tested")
	}

	if len(final.Report.Failures) != 0 {
		t.Fatalf("transient faults survived the retry pass: %v", final.Report.Failures)
	}
	if final.Report.Evaluated != clean.Report.Evaluated {
		t.Fatalf("crash-looped sweep evaluated %d designs, clean sweep %d",
			final.Report.Evaluated, clean.Report.Evaluated)
	}
	if final.Optimal.Design != clean.Optimal.Design || final.Optimal.Total() != clean.Optimal.Total() {
		t.Fatalf("crash-looped optimum differs from uninterrupted:\nchaos: %+v (%v)\nclean: %+v (%v)",
			final.Optimal.Design, final.Optimal.Total(), clean.Optimal.Design, clean.Optimal.Total())
	}
	if len(final.Frontier) != len(clean.Frontier) {
		t.Fatalf("crash-looped frontier has %d points, clean has %d", len(final.Frontier), len(clean.Frontier))
	}
	for i := range clean.Frontier {
		if final.Frontier[i].Operational != clean.Frontier[i].Operational ||
			final.Frontier[i].Embodied != clean.Frontier[i].Embodied {
			t.Fatalf("frontier point %d differs: (%v, %v) vs (%v, %v)", i,
				final.Frontier[i].Operational, final.Frontier[i].Embodied,
				clean.Frontier[i].Operational, clean.Frontier[i].Embodied)
		}
	}
}

// TestChaosShardedMergeResume is the distributed acceptance scenario: the
// space split across three shard workers, one crash-looping under injected
// kills, one battling transient faults, one abandoned mid-batch and never
// restarted. Merging whatever checkpoints survive and resuming the merged
// file must yield exactly the optimum and Pareto frontier of an
// uninterrupted single-process sweep.Run.
func TestChaosShardedMergeResume(t *testing.T) {
	in := chaosInputs(t)
	space := chaosSpace(in)
	dir := t.TempDir()

	clean, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{})
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}

	const shards = 3

	// Shard 1/3: a crash loop — each life is killed after a few evaluations
	// and resumed from its own checkpoint until the slice completes.
	shard1 := filepath.Join(dir, "shard1.json")
	lives := 0
	for {
		lives++
		if lives > 50 {
			t.Fatal("shard 1 crash loop did not converge in 50 lives")
		}
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		evals := 0
		in.EvalHook = func(explorer.Design) error {
			mu.Lock()
			evals++
			if evals == 5 {
				cancel()
			}
			mu.Unlock()
			return nil
		}
		_, err := sweep.Run(ctx, in, space, explorer.RenewablesBatteryCAS, sweep.Options{BatchSize: 3, Plan: sweep.Plan{Shard: sweep.Shard{Index: 1, Count: shards}}, Checkpoint: sweep.CheckpointOptions{Path: shard1, Every: 2, Resume: true}})
		cancel()
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shard 1 life %d died of something other than the injected kill: %v", lives, err)
		}
	}
	if lives < 2 {
		t.Fatal("shard 1 finished in one life — the kill never fired, nothing was chaos-tested")
	}

	// Shard 2/3: transient faults on ~25% of designs; the retry-once pass
	// must absorb them all within one run.
	in.EvalHook = TransientFaults(42, 0.25)
	shard2 := filepath.Join(dir, "shard2.json")
	res2, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{BatchSize: 4, Plan: sweep.Plan{Shard: sweep.Shard{Index: 2, Count: shards}}, Checkpoint: sweep.CheckpointOptions{Path: shard2}})
	if err != nil {
		t.Fatalf("transient-fault shard: %v", err)
	}
	if res2.Report.Recovered == 0 {
		t.Fatal("shard 2 recovered nothing; raise the fraction or reseed")
	}
	if len(res2.Report.Failures) != 0 {
		t.Fatalf("transient faults left permanent failures on shard 2: %v", res2.Report.Failures)
	}

	// Shard 3/3: killed mid-batch and never restarted — the worker is lost,
	// only its partial checkpoint remains.
	shard3 := filepath.Join(dir, "shard3.json")
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	evals := 0
	in.EvalHook = func(explorer.Design) error {
		mu.Lock()
		evals++
		if evals == 7 {
			cancel()
		}
		mu.Unlock()
		return nil
	}
	_, err = sweep.Run(ctx, in, space, explorer.RenewablesBatteryCAS, sweep.Options{BatchSize: 3, Plan: sweep.Plan{Shard: sweep.Shard{Index: 3, Count: shards}}, Checkpoint: sweep.CheckpointOptions{Path: shard3, Every: 1, Resume: true}})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("shard 3 should die of the injected kill, got %v", err)
	}
	in.EvalHook = nil

	// Merge the two complete shards with the lost worker's partial file.
	merged := filepath.Join(dir, "merged.json")
	rep, err := sweep.MergeCheckpoints(merged, shard1, shard2, shard3)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if rep.Complete() {
		t.Fatal("merge including a half-dead shard claims completion")
	}
	if rep.Done == 0 || rep.Pending == 0 {
		t.Fatalf("merge lost the partial progress picture: %+v", rep)
	}

	// One unsharded resume finishes the lost shard's remainder.
	final, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		sweep.Options{Checkpoint: sweep.CheckpointOptions{Path: merged, Resume: true}})
	if err != nil {
		t.Fatalf("resume of merged checkpoint: %v", err)
	}
	if final.Report.Restored != rep.Done {
		t.Fatalf("resume restored %d designs, merge reported %d done", final.Report.Restored, rep.Done)
	}
	if final.Report.Evaluated != clean.Report.Evaluated {
		t.Fatalf("sharded chaos run evaluated %d designs, clean run %d",
			final.Report.Evaluated, clean.Report.Evaluated)
	}
	if final.Optimal.Design != clean.Optimal.Design || final.Optimal.Total() != clean.Optimal.Total() {
		t.Fatalf("sharded chaos optimum differs from uninterrupted:\nchaos: %+v (%v)\nclean: %+v (%v)",
			final.Optimal.Design, final.Optimal.Total(), clean.Optimal.Design, clean.Optimal.Total())
	}
	if len(final.Frontier) != len(clean.Frontier) {
		t.Fatalf("sharded chaos frontier has %d points, clean has %d", len(final.Frontier), len(clean.Frontier))
	}
	for i := range clean.Frontier {
		if final.Frontier[i].Design != clean.Frontier[i].Design ||
			final.Frontier[i].Operational != clean.Frontier[i].Operational ||
			final.Frontier[i].Embodied != clean.Frontier[i].Embodied {
			t.Fatalf("frontier point %d differs: %+v vs %+v",
				i, final.Frontier[i].Design, clean.Frontier[i].Design)
		}
	}
}

// TestChaosSweepTransientRecovery: transient faults alone (no kills) must be
// fully absorbed by the sweep's retry-once pass.
func TestChaosSweepTransientRecovery(t *testing.T) {
	in := chaosInputs(t)
	space := chaosSpace(in)
	clean, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in.EvalHook = TransientFaults(5, 0.25)
	res, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS, sweep.Options{})
	if err != nil {
		t.Fatalf("transient faults sank the sweep: %v", err)
	}
	if res.Report.Recovered == 0 {
		t.Fatal("no designs recovered; raise the fraction or reseed")
	}
	if len(res.Report.Failures) != 0 {
		t.Fatalf("transient faults left permanent failures: %v", res.Report.Failures)
	}
	if res.Optimal.Design != clean.Optimal.Design {
		t.Fatalf("optimum drifted under transient faults: %+v vs %+v",
			res.Optimal.Design, clean.Optimal.Design)
	}
}

// TestChaosEiacsv feeds every corruption class through the strict reader:
// each must yield a typed error or a structurally sound year.
func TestChaosEiacsv(t *testing.T) {
	var buf bytes.Buffer
	if err := eiacsv.Write(&buf, grid.GenerateYear(grid.MustProfile("PNM"))); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	check := func(t *testing.T, data []byte) {
		y, err := eiacsv.Read(bytes.NewReader(data), "FZ")
		if err != nil {
			return // typed rejection is a pass
		}
		if err := y.Demand.Validate(); err != nil {
			t.Fatalf("accepted year has invalid demand: %v", err)
		}
		for s := range y.BySource {
			if err := y.BySource[s].Validate(); err != nil {
				t.Fatalf("accepted year has invalid generation: %v", err)
			}
		}
	}

	t.Run("mangled-bytes", func(t *testing.T) {
		for seed := uint64(0); seed < 20; seed++ {
			check(t, MangleBytes(valid, seed, 16))
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, frac := range []float64{0.1, 0.5, 0.9, 0.999} {
			check(t, TruncateBytes(valid, frac))
		}
	})
	t.Run("out-of-sequence-hours", func(t *testing.T) {
		data := SwapLines(valid, 5, 8)
		if _, err := eiacsv.Read(bytes.NewReader(data), "FZ"); err == nil {
			t.Fatal("swapped hours accepted")
		}
	})
	t.Run("nan-fields-strict", func(t *testing.T) {
		data := ReplaceFields(valid, 9, 5, "NaN")
		_, err := eiacsv.Read(bytes.NewReader(data), "FZ")
		if !errors.Is(err, eiacsv.ErrNonFinite) {
			t.Fatalf("want ErrNonFinite, got %v", err)
		}
	})
	t.Run("inf-fields-strict", func(t *testing.T) {
		data := ReplaceFields(valid, 10, 3, "+Inf")
		_, err := eiacsv.Read(bytes.NewReader(data), "FZ")
		if !errors.Is(err, eiacsv.ErrNonFinite) {
			t.Fatalf("want ErrNonFinite, got %v", err)
		}
	})
	t.Run("nan-fields-tolerant-repairs", func(t *testing.T) {
		data := ReplaceFields(valid, 9, 5, "NaN")
		y, rep, err := eiacsv.ReadTolerant(bytes.NewReader(data), "FZ", timeseries.DefaultRepairPolicy())
		if err != nil {
			t.Fatalf("tolerant read failed: %v", err)
		}
		if rep.TotalInterpolated() == 0 {
			t.Fatal("tolerant read repaired nothing")
		}
		if err := y.Demand.Validate(); err != nil {
			t.Fatalf("repaired year still invalid: %v", err)
		}
	})
	t.Run("long-gap-tolerant-rejects", func(t *testing.T) {
		// A full day of NaNs in one column exceeds the default 6-hour bound.
		lines := bytes.Split(append([]byte(nil), valid...), []byte("\n"))
		for i := 1; i <= 24; i++ {
			fields := bytes.Split(lines[i], []byte(","))
			fields[1] = []byte("NaN")
			lines[i] = bytes.Join(fields, []byte(","))
		}
		data := bytes.Join(lines, []byte("\n"))
		_, _, err := eiacsv.ReadTolerant(bytes.NewReader(data), "FZ", timeseries.DefaultRepairPolicy())
		if !errors.Is(err, timeseries.ErrGapTooLong) {
			t.Fatalf("want ErrGapTooLong, got %v", err)
		}
	})
}

// TestChaosDcload mirrors the eiacsv chaos for the demand-trace loader.
func TestChaosDcload(t *testing.T) {
	power := timeseries.Generate(480, func(h int) float64 { return 20 + 5*math.Sin(float64(h)/9) })
	var buf bytes.Buffer
	if err := dcload.WritePowerCSV(&buf, power); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("mangled-bytes", func(t *testing.T) {
		for seed := uint64(0); seed < 20; seed++ {
			s, err := dcload.LoadPowerCSV(bytes.NewReader(MangleBytes(valid, seed, 8)))
			if err != nil {
				continue
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted trace invalid: %v", err)
			}
		}
	})
	t.Run("nan-strict", func(t *testing.T) {
		data := ReplaceFields(valid, 4, 3, "NaN")
		_, err := dcload.LoadPowerCSV(bytes.NewReader(data))
		if !errors.Is(err, dcload.ErrNonFinite) {
			t.Fatalf("want ErrNonFinite, got %v", err)
		}
	})
	t.Run("nan-tolerant-repairs", func(t *testing.T) {
		data := ReplaceFields(valid, 4, 3, "NaN")
		s, rep, err := dcload.LoadPowerCSVTolerant(bytes.NewReader(data), timeseries.DefaultRepairPolicy())
		if err != nil {
			t.Fatalf("tolerant load failed: %v", err)
		}
		if rep.Interpolated == 0 {
			t.Fatal("tolerant load repaired nothing")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("repaired trace still invalid: %v", err)
		}
	})
	t.Run("out-of-sequence", func(t *testing.T) {
		if _, err := dcload.LoadPowerCSV(bytes.NewReader(SwapLines(valid, 2, 4))); err == nil {
			t.Fatal("swapped hours accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		s, err := dcload.LoadPowerCSV(bytes.NewReader(TruncateBytes(valid, 0.4)))
		if err == nil && s.Validate() != nil {
			t.Fatalf("accepted truncated trace invalid")
		}
	})
}

// TestChaosScheduler: corrupted series must be rejected with typed errors,
// and a documented Repair must make them usable again with energy
// conserved.
func TestChaosScheduler(t *testing.T) {
	n := 96
	demand := timeseries.Generate(n, func(h int) float64 { return 10 + float64(h%24)/4 })
	signal := timeseries.Generate(n, func(h int) float64 { return math.Sin(float64(h)) })
	cfg := scheduler.Config{FlexibleRatio: 0.4, WindowHours: 24}

	corrupted := NaNRuns(demand, 21, 2, 3)
	if _, err := scheduler.ShiftDaily(corrupted, signal, cfg); err == nil {
		t.Fatal("NaN demand accepted")
	} else {
		var ve *timeseries.ValueError
		if !errors.As(err, &ve) {
			t.Fatalf("want *timeseries.ValueError, got %v", err)
		}
	}
	if _, err := scheduler.ShiftDaily(demand, NaNRuns(signal, 3, 1, 2), cfg); err == nil {
		t.Fatal("NaN signal accepted")
	}
	if _, err := scheduler.ShiftDaily(demand, Truncate(signal, n/2), cfg); !errors.Is(err, timeseries.ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}

	repaired, rep, err := corrupted.Repair(timeseries.DefaultRepairPolicy())
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if !rep.Changed() {
		t.Fatal("repair changed nothing")
	}
	out, err := scheduler.ShiftDaily(repaired, signal, cfg)
	if err != nil {
		t.Fatalf("repaired demand rejected: %v", err)
	}
	if math.Abs(out.Sum()-repaired.Sum()) > 1e-6*(1+repaired.Sum()) {
		t.Fatalf("energy not conserved after repair: %v -> %v", repaired.Sum(), out.Sum())
	}
}

// TestChaosFleet: per-site corruption must name the site and fault class.
func TestChaosFleet(t *testing.T) {
	n := 48
	mkdc := func(id string) fleet.DC {
		return fleet.DC{
			ID:        id,
			Demand:    timeseries.Constant(n, 10),
			Renewable: timeseries.Generate(n, func(h int) float64 { return float64(h % 24) }),
			GridCI:    timeseries.Constant(n, 300),
		}
	}
	cfg := fleet.Config{MigratableRatio: 0.3}

	if _, err := fleet.Balance(nil, cfg); !errors.Is(err, fleet.ErrEmptyFleet) {
		t.Fatalf("want ErrEmptyFleet, got %v", err)
	}

	bad := mkdc("B")
	bad.Demand = NaNRuns(bad.Demand, 5, 1, 2)
	_, err := fleet.Balance([]fleet.DC{mkdc("A"), bad}, cfg)
	var ve *timeseries.ValueError
	if !errors.As(err, &ve) {
		t.Fatalf("want *timeseries.ValueError, got %v", err)
	}

	short := mkdc("C")
	short.Renewable = Truncate(short.Renewable, n/2)
	if _, err := fleet.Balance([]fleet.DC{mkdc("A"), short}, cfg); !errors.Is(err, timeseries.ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}

// TestChaosInputsFromSeries: corrupted user data is rejected strictly and
// accepted under the documented repair option.
func TestChaosInputsFromSeries(t *testing.T) {
	n := 240
	demand := timeseries.Constant(n, 10)
	wind := timeseries.Generate(n, func(h int) float64 { return float64(h % 12) })
	solar := timeseries.Constant(n, 3)
	ci := timeseries.Constant(n, 350)
	emb := carbon.DefaultEmbodiedParams()
	site := grid.MustSite("UT")

	gappy := NaNRuns(demand, 13, 3, 4)
	if _, err := explorer.NewInputsFromSeries(site, gappy, wind, solar, ci, emb); err == nil {
		t.Fatal("NaN demand accepted strictly")
	}
	in, err := explorer.NewInputsFromSeries(site, gappy, wind, solar, ci, emb,
		explorer.WithSeriesRepair(timeseries.DefaultRepairPolicy()))
	if err != nil {
		t.Fatalf("tolerant inputs failed: %v", err)
	}
	if err := in.Demand.Validate(); err != nil {
		t.Fatalf("repaired demand still invalid: %v", err)
	}
	o, err := in.Evaluate(explorer.Design{WindMW: 20, SolarMW: 10})
	if err != nil {
		t.Fatalf("evaluation on repaired inputs: %v", err)
	}
	if math.IsNaN(o.CoveragePct) || math.IsNaN(float64(o.Total())) {
		t.Fatal("repaired inputs produced NaN outcome — silent wrong number")
	}

	if _, err := explorer.NewInputsFromSeries(site, demand, Truncate(wind, n/2), solar, ci, emb); !errors.Is(err, timeseries.ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}

// TestChaosDesignValidation: non-finite design fields must be typed errors,
// not silent NaN propagation through a whole evaluation.
func TestChaosDesignValidation(t *testing.T) {
	in := chaosInputs(t)
	for _, d := range []explorer.Design{
		{WindMW: math.NaN()},
		{SolarMW: math.Inf(1)},
		{WindMW: 10, BatteryMWh: math.NaN()},
		{FlexibleRatio: math.NaN()},
	} {
		if _, err := in.Evaluate(d); err == nil {
			t.Fatalf("non-finite design accepted: %+v", d)
		}
	}
}
