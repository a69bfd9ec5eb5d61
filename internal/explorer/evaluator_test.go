package explorer

// White-box tests for the Evaluator's performance contracts: the
// steady-state zero-allocation guarantee (gated in CI by the bench-sweep
// job), the renewable-supply memoization, and the reference fallback for
// inputs outside the clean-series guarantee.

import (
	"math"
	"testing"

	"carbonexplorer/internal/battery"
	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/timeseries"
)

func evaluatorInputs(tb testing.TB) *Inputs {
	tb.Helper()
	const n = 240
	demand := timeseries.Generate(n, func(h int) float64 { return 10 + 2*math.Sin(float64(h%24)/24*2*math.Pi) })
	wind := timeseries.Generate(n, func(h int) float64 { return 5 + 4*math.Sin(float64(h)/17) })
	solar := timeseries.Generate(n, func(h int) float64 { return math.Max(0, 8*math.Sin((float64(h%24)-6)/12*math.Pi)) })
	ci := timeseries.Generate(n, func(h int) float64 { return 300 + 150*math.Sin(float64(h)/9) })
	in, err := NewInputsFromSeries(grid.MustSite("UT"), demand, wind, solar, ci, carbon.DefaultEmbodiedParams())
	if err != nil {
		tb.Fatalf("inputs: %v", err)
	}
	return in
}

// TestEvaluateSteadyStateZeroAllocs pins the tentpole guarantee: once an
// evaluator has warmed its buffers, evaluating further designs allocates
// nothing — including the heaviest design shape (battery + carbon-aware
// scheduling + both renewables) — on the 240-hour toy site and on a full
// 8,760-hour paper site. CI's bench-sweep job runs exactly this test as its
// zero-alloc gate.
func TestEvaluateSteadyStateZeroAllocs(t *testing.T) {
	for _, in := range []*Inputs{evaluatorInputs(t), siteInputs(t, "UT")} {
		avg := in.AvgDemandMW()
		designs := []Design{
			// Renewables only (fast-path scheduler).
			{WindMW: 2 * avg, SolarMW: avg},
			// Battery + CAS: every branch of the general scheduler loop.
			{WindMW: 3 * avg, SolarMW: 2 * avg, BatteryMWh: 4 * avg, DoD: 0.8,
				FlexibleRatio: 0.4, ExtraCapacityFrac: 0.25},
			// Battery only, alternate chemistry.
			{WindMW: avg, SolarMW: 0, BatteryMWh: avg, DoD: 1.0, BatteryTech: battery.NMCCell},
		}
		for i, d := range designs {
			ev := in.NewEvaluator()
			ev.DiscardSoCTrace = true
			if _, err := ev.Evaluate(d); err != nil { // warm buffers + memo
				t.Fatalf("%d h, design %d warmup: %v", in.Demand.Len(), i, err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := ev.Evaluate(d); err != nil {
					t.Fatalf("%d h, design %d: %v", in.Demand.Len(), i, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%d h, design %d: steady-state Evaluate allocated %.1f allocs/op, want 0", in.Demand.Len(), i, allocs)
			}
		}
	}
}

// TestEvaluatorMemoizesSupply verifies the supply buffer is rebuilt only
// when the renewable axes move: a repeat (wind, solar) pair must leave the
// buffer untouched, and a changed pair must rebuild it.
func TestEvaluatorMemoizesSupply(t *testing.T) {
	in := evaluatorInputs(t)
	ev := in.NewEvaluator()
	if !ev.ensureSupply(20, 10) {
		t.Fatal("ensureSupply(20, 10) = false, want true")
	}
	want := ev.supply[0]
	// Poison the buffer, then ask for the same pair: a memo hit must not
	// touch the buffer, so the poison survives.
	ev.supply[0] = math.Pi
	if !ev.ensureSupply(20, 10) {
		t.Fatal("memo-hit ensureSupply = false, want true")
	}
	if ev.supply[0] != math.Pi {
		t.Fatalf("memo hit rebuilt the supply buffer: supply[0] = %v, want poison %v", ev.supply[0], math.Pi)
	}
	// A different pair must rebuild (clearing the poison).
	if !ev.ensureSupply(25, 10) {
		t.Fatal("ensureSupply(25, 10) = false, want true")
	}
	if ev.supply[0] == math.Pi {
		t.Fatal("changed wind investment did not rebuild the supply buffer")
	}
	// And back to the first pair: rebuilt again, bit-identical to the
	// original build.
	if !ev.ensureSupply(20, 10) {
		t.Fatal("ensureSupply(20, 10) again = false, want true")
	}
	if math.Float64bits(ev.supply[0]) != math.Float64bits(want) {
		t.Fatalf("rebuild not bit-identical: got %v, want %v", ev.supply[0], want)
	}
}

// TestEvaluatorFallback pins the safety net: Inputs that fail the
// construction-time clean-series check (here: a NaN in the wind shape)
// route every evaluation through the reference path and reproduce its exact
// errors, instead of feeding unvalidated series to AssumeValid.
func TestEvaluatorFallback(t *testing.T) {
	const n = 48
	in := &Inputs{
		Demand:     timeseries.Generate(n, func(int) float64 { return 10 }),
		WindShape:  timeseries.Generate(n, func(h int) float64 { return math.NaN() }),
		SolarShape: timeseries.Generate(n, func(int) float64 { return 1 }),
		GridCI:     timeseries.Generate(n, func(int) float64 { return 400 }),
		Embodied:   carbon.DefaultEmbodiedParams(),
	}
	ev := in.NewEvaluator()
	if !ev.fallback {
		t.Fatal("NewEvaluator accepted a NaN wind shape into the optimized path")
	}
	d := Design{WindMW: 20, SolarMW: 5}
	_, wantErr := in.Evaluate(d)
	_, gotErr := ev.Evaluate(d)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("expected both paths to reject NaN shape: ref=%v opt=%v", wantErr, gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("fallback error diverged from reference:\nref: %v\nopt: %v", wantErr, gotErr)
	}
}

// TestEvaluatorOverflowGuardFallsBack drives the O(1) overflow bound: an
// investment large enough to overflow the scaled supply must be detected
// without a per-sample scan and handed to the reference path, which
// produces the exact reference error.
func TestEvaluatorOverflowGuardFallsBack(t *testing.T) {
	in := evaluatorInputs(t)
	ev := in.NewEvaluator()
	if ev.fallback {
		t.Fatal("clean inputs unexpectedly in fallback mode")
	}
	if ev.ensureSupply(math.MaxFloat64, math.MaxFloat64) {
		t.Fatal("ensureSupply accepted an overflowing investment")
	}
	d := Design{WindMW: math.MaxFloat64, SolarMW: math.MaxFloat64}
	_, wantErr := in.Evaluate(d)
	_, gotErr := ev.Evaluate(d)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("overflow handling diverged: ref=%v opt=%v", wantErr, gotErr)
	}
	if wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("overflow error diverged:\nref: %v\nopt: %v", wantErr, gotErr)
	}
	// The evaluator must still work for sane designs afterwards.
	if _, err := ev.Evaluate(Design{WindMW: 10, SolarMW: 5}); err != nil {
		t.Fatalf("evaluator unusable after overflow fallback: %v", err)
	}
}

// BenchmarkEvaluate measures the per-design cost of the optimized hot path
// in isolation (no sweep machinery), reporting designs/sec: the heaviest
// design shape on the 240-hour toy site, and each of the four strategy
// shapes on UT's 8,760-hour year, where the paper's figures spend their
// time. The bench-sweep CI job records it alongside BenchmarkSweepDensity in
// BENCH_sweep.json.
func BenchmarkEvaluate(b *testing.B) {
	toy := evaluatorInputs(b)
	toyAvg := toy.AvgDemandMW()
	heaviest := Design{WindMW: 3 * toyAvg, SolarMW: 2 * toyAvg, BatteryMWh: 4 * toyAvg, DoD: 0.8,
		FlexibleRatio: 0.4, ExtraCapacityFrac: 0.25}
	b.Run("toy-240h/all", func(b *testing.B) { benchmarkEvaluate(b, toy, heaviest) })
	ut := siteInputs(b, "UT")
	avg := ut.AvgDemandMW()
	renewables := Design{WindMW: 4 * avg, SolarMW: 4 * avg}
	withBattery := renewables
	withBattery.BatteryMWh, withBattery.DoD = 8*avg, 1.0
	withCAS := renewables
	withCAS.FlexibleRatio, withCAS.ExtraCapacityFrac = 0.4, 0.25
	all := withBattery
	all.FlexibleRatio, all.ExtraCapacityFrac = 0.4, 0.25
	for _, c := range []struct {
		shape string
		d     Design
	}{{"renewables", renewables}, {"battery", withBattery}, {"cas", withCAS}, {"all", all}} {
		b.Run("UT-8760h/"+c.shape, func(b *testing.B) { benchmarkEvaluate(b, ut, c.d) })
	}
}

func benchmarkEvaluate(b *testing.B, in *Inputs, d Design) {
	ev := in.NewEvaluator()
	ev.DiscardSoCTrace = true
	if _, err := ev.Evaluate(d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "designs/sec")
}
