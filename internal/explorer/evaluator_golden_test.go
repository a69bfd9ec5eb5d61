package explorer_test

// Golden-equivalence suite for the optimized Evaluator: every outcome it
// produces must be byte-identical to the retained reference implementation
// (Inputs.Evaluate), including while the faultinject chaos matrix is
// poisoning evaluations in between — a failed or panicked design must leave
// the evaluator's scratch state unable to corrupt the next success.

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"carbonexplorer/internal/battery"
	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/faultinject"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/timeseries"
)

// goldenInputs mirrors the sweep tests' 10-day site.
func goldenInputs(tb testing.TB) *explorer.Inputs {
	tb.Helper()
	const n = 240
	demand := timeseries.Generate(n, func(h int) float64 { return 10 + 2*math.Sin(float64(h%24)/24*2*math.Pi) })
	wind := timeseries.Generate(n, func(h int) float64 { return 5 + 4*math.Sin(float64(h)/17) })
	solar := timeseries.Generate(n, func(h int) float64 { return math.Max(0, 8*math.Sin((float64(h%24)-6)/12*math.Pi)) })
	ci := timeseries.Generate(n, func(h int) float64 { return 300 + 150*math.Sin(float64(h)/9) })
	in, err := explorer.NewInputsFromSeries(grid.MustSite("UT"), demand, wind, solar, ci, carbon.DefaultEmbodiedParams())
	if err != nil {
		tb.Fatalf("goldenInputs: %v", err)
	}
	return in
}

func goldenSpace(in *explorer.Inputs) explorer.Space {
	avg := in.AvgDemandMW()
	return explorer.Space{
		WindMW:             []float64{0, avg, 3 * avg, 8 * avg},
		SolarMW:            []float64{0, avg, 3 * avg, 8 * avg},
		BatteryHours:       []float64{0, 1, 4},
		ExtraCapacityFracs: []float64{0, 0.25, 1.0},
		DoD:                0.8,
		FlexibleRatio:      0.4,
	}
}

// outcomesEqual compares every field for exact bitwise equality (NaN-safe:
// identical bits compare equal under reflect.DeepEqual's float rules only
// for non-NaN, so compare bit patterns through Float64bits explicitly where
// it matters; the evaluator never produces NaN from clean inputs, so
// DeepEqual is sufficient and also covers the SoC trace).
func outcomesEqual(a, b explorer.Outcome) bool {
	return reflect.DeepEqual(a, b)
}

// TestEvaluatorGoldenEquivalence sweeps all four strategies' full design
// enumerations through one reused Evaluator (battery-axis memoization hits
// included, since enumeration varies battery/CAS innermost) and demands
// bitwise-identical outcomes against fresh reference evaluations.
func TestEvaluatorGoldenEquivalence(t *testing.T) {
	in := goldenInputs(t)
	space := goldenSpace(in)
	for _, strat := range explorer.AllStrategies() {
		ev := in.NewEvaluator()
		for i, d := range space.Enumerate(strat, in.AvgDemandMW()) {
			want, wantErr := in.Evaluate(d)
			got, gotErr := ev.Evaluate(d)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%v design %d: error mismatch: ref=%v opt=%v", strat, i, wantErr, gotErr)
			}
			if !outcomesEqual(want, got) {
				t.Fatalf("%v design %d (%+v):\nreference: %+v\noptimized: %+v", strat, i, d, want, got)
			}
		}
	}
}

// TestEvaluatorGoldenPaperScale repeats the golden comparison on full
// 8,760-hour paper sites, where the deferral ledger, the horizon clamp and
// the battery run a whole year: seeded designs inside DefaultSpace's bounds,
// all four strategies, every battery chemistry at 80% DoD, through one reused
// Evaluator per site. The chemistries share each drawn design, so supply
// memo hits are compared too.
func TestEvaluatorGoldenPaperScale(t *testing.T) {
	rng := rand.New(rand.NewSource(8760))
	for _, id := range []string{"OR", "UT", "NC", "NE"} {
		in, err := explorer.NewInputs(grid.MustSite(id))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		space := explorer.DefaultSpace(in)
		ev := in.NewEvaluator()
		for _, strat := range explorer.AllStrategies() {
			for k := 0; k < 3; k++ {
				drawn := seededDesign(rng, space, in.AvgDemandMW(), strat)
				for _, tech := range battery.AllTechnologies() {
					d := drawn
					if d.BatteryMWh > 0 {
						d.DoD, d.BatteryTech = 0.8, tech
					}
					want, wantErr := in.Evaluate(d)
					got, gotErr := ev.Evaluate(d)
					if wantErr != nil || gotErr != nil {
						t.Fatalf("%s %v %+v: errors ref=%v opt=%v", id, strat, d, wantErr, gotErr)
					}
					if !outcomesEqual(want, got) {
						t.Fatalf("%s %v %+v:\nreference: %+v\noptimized: %+v", id, strat, d, want, got)
					}
				}
			}
		}
	}
}

// TestEvaluatorGoldenEquivalenceNonLFP covers the non-default chemistry
// branch of the embodied accounting.
func TestEvaluatorGoldenEquivalenceNonLFP(t *testing.T) {
	in := goldenInputs(t)
	ev := in.NewEvaluator()
	avg := in.AvgDemandMW()
	for _, tech := range battery.AllTechnologies() {
		d := explorer.Design{WindMW: 2 * avg, SolarMW: avg, BatteryMWh: 3 * avg, DoD: 0.8, BatteryTech: tech}
		want, err1 := in.Evaluate(d)
		got, err2 := ev.Evaluate(d)
		if err1 != nil || err2 != nil {
			t.Fatalf("tech %v: errors %v / %v", tech, err1, err2)
		}
		if !outcomesEqual(want, got) {
			t.Fatalf("tech %v diverged:\nreference: %+v\noptimized: %+v", tech, want, got)
		}
	}
}

// TestEvaluatorGoldenUnderChaos interleaves the faultinject chaos matrix —
// transient errors, permanent errors, and panics — with successful
// evaluations through one reused evaluator. Every successful outcome must
// still match the reference bit for bit: a contained failure may not leak
// state into the next design.
func TestEvaluatorGoldenUnderChaos(t *testing.T) {
	in := goldenInputs(t)
	space := goldenSpace(in)
	hooks := map[string]func(explorer.Design) error{
		"transient": faultinject.TransientFaults(7, 0.3),
		"permanent": faultinject.DesignFaults(11, 0.3),
		"panics":    faultinject.PanicFaults(13, 0.2),
	}
	for name, hook := range hooks {
		t.Run(name, func(t *testing.T) {
			in.EvalHook = hook
			defer func() { in.EvalHook = nil }()
			for _, strat := range explorer.AllStrategies() {
				ev := in.NewEvaluator()
				for i, d := range space.Enumerate(strat, in.AvgDemandMW()) {
					got, gotErr := ev.EvaluateSafe(d)
					// Reference outcomes are computed with the hook disabled
					// so the transient hook's first-failure bookkeeping is not
					// advanced by the comparison run.
					if gotErr != nil {
						var pe *explorer.PanicError
						if name == "panics" && !errors.As(gotErr, &pe) {
							t.Fatalf("%v design %d: expected contained panic, got %v", strat, i, gotErr)
						}
						continue
					}
					in.EvalHook = nil
					want, wantErr := in.Evaluate(d)
					in.EvalHook = hook
					if wantErr != nil {
						t.Fatalf("%v design %d: reference failed: %v", strat, i, wantErr)
					}
					if !outcomesEqual(want, got) {
						t.Fatalf("%v design %d after chaos: outcomes diverged\nreference: %+v\noptimized: %+v", strat, i, want, got)
					}
				}
			}
		})
	}
}
