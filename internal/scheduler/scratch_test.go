package scheduler

import (
	"math"
	"testing"

	"carbonexplorer/internal/battery"
	"carbonexplorer/internal/timeseries"
)

// scratchConfigs is a matrix of simulation shapes chosen to hit every branch:
// no battery / battery, no flex / flex, capacity cap on/off, forced
// deadlines, horizon-clamped deadlines (including re-deferral to a clamped
// slot a pull already drained), and degenerate short horizons.
func scratchConfigs(tb testing.TB) []SimConfig {
	tb.Helper()
	n := 240
	demand := timeseries.Generate(n, func(h int) float64 { return 10 + 2*math.Sin(float64(h)/24*2*math.Pi) })
	wind := timeseries.Generate(n, func(h int) float64 { return 5 + 4*math.Sin(float64(h)/13) })
	solar := timeseries.Generate(n, func(h int) float64 {
		v := 12 * math.Sin(float64(h%24-6)/12*math.Pi)
		if v < 0 {
			return 0
		}
		return v
	})
	spike := timeseries.Generate(n, func(h int) float64 {
		if h%7 == 0 {
			return 40
		}
		return 1
	})
	// Deficit and surplus hours alternate. From hour 24 every deferral is
	// clamped to the final hour: each surplus hour drains that slot, and the
	// next deficit hour defers to it again, below any scan index that only
	// ever moves forward.
	seesaw := timeseries.Generate(48, func(h int) float64 { return float64(h%2) * 30 })
	newBat := func(capacity, dod float64) *battery.Battery {
		b, err := battery.New(battery.LFP(capacity, dod))
		if err != nil {
			tb.Fatalf("battery.New: %v", err)
		}
		return b
	}
	return []SimConfig{
		{Demand: demand, Renewable: wind},
		{Demand: demand, Renewable: wind, FlexibleRatio: 0.4},
		{Demand: demand, Renewable: solar, FlexibleRatio: 0.4, DeferralWindowHours: 24},
		{Demand: demand, Renewable: solar, FlexibleRatio: 1.0, DeferralWindowHours: 6},
		{Demand: demand, Renewable: spike, FlexibleRatio: 0.5, CapacityMW: 12},
		{Demand: demand, Renewable: spike, FlexibleRatio: 0.5, CapacityMW: 12, Battery: newBat(20, 0.8)},
		{Demand: demand, Renewable: wind, Battery: newBat(5, 1.0)},
		{Demand: demand, Renewable: solar, FlexibleRatio: 0.4, Battery: newBat(40, 0.8), CapacityMW: 15},
		{Demand: demand.Slice(0, 24), Renewable: solar.Slice(0, 24), FlexibleRatio: 0.4, DeferralWindowHours: 48},
		{Demand: demand.Slice(0, 1), Renewable: wind.Slice(0, 1), FlexibleRatio: 0.9},
		{Demand: demand.Slice(0, 48), Renewable: seesaw, FlexibleRatio: 0.5},
	}
}

// TestSimulateScratchMatchesSimulate proves the flat-buffer path is
// bit-identical to the reference Simulate across the branch matrix.
func TestSimulateScratchMatchesSimulate(t *testing.T) {
	var s Scratch
	for i, cfg := range scratchConfigs(t) {
		// Independent battery instances per run: Simulate mutates them.
		refCfg := cfg
		optCfg := cfg
		if cfg.Battery != nil {
			cfg.Battery.Reset()
			refCfg.Battery = cfg.Battery
			b := *cfg.Battery
			optCfg.Battery = &b
		}

		want, err := Simulate(refCfg)
		if err != nil {
			t.Fatalf("case %d: Simulate: %v", i, err)
		}
		got, err := SimulateScratch(optCfg, &s)
		if err != nil {
			t.Fatalf("case %d: SimulateScratch: %v", i, err)
		}

		n := cfg.Demand.Len()
		for h := 0; h < n; h++ {
			if bitsDiffer(want.Balanced.At(h), got.Balanced[h]) {
				t.Fatalf("case %d hour %d: Balanced %v != %v", i, h, want.Balanced.At(h), got.Balanced[h])
			}
			if bitsDiffer(want.GridDraw.At(h), got.GridDraw[h]) {
				t.Fatalf("case %d hour %d: GridDraw %v != %v", i, h, want.GridDraw.At(h), got.GridDraw[h])
			}
			if bitsDiffer(want.BatterySoC.At(h), got.BatterySoC[h]) {
				t.Fatalf("case %d hour %d: BatterySoC %v != %v", i, h, want.BatterySoC.At(h), got.BatterySoC[h])
			}
			if bitsDiffer(want.Surplus.At(h), got.Surplus[h]) {
				t.Fatalf("case %d hour %d: Surplus %v != %v", i, h, want.Surplus.At(h), got.Surplus[h])
			}
		}
		if bitsDiffer(want.ForcedDeadlineMWh, got.ForcedDeadlineMWh) {
			t.Fatalf("case %d: ForcedDeadlineMWh %v != %v", i, want.ForcedDeadlineMWh, got.ForcedDeadlineMWh)
		}
		if bitsDiffer(want.PeakLoadMW, got.PeakLoadMW) {
			t.Fatalf("case %d: PeakLoadMW %v != %v", i, want.PeakLoadMW, got.PeakLoadMW)
		}
		if bitsDiffer(want.Surplus.Sum(), got.SurplusMWh) {
			t.Fatalf("case %d: SurplusMWh %v != Σ Surplus %v", i, got.SurplusMWh, want.Surplus.Sum())
		}
	}
}

// TestSimulateScratchReuseIsClean proves stale state from a previous run —
// including a longer horizon and leftover deferred entries — cannot leak
// into the next one.
func TestSimulateScratchReuseIsClean(t *testing.T) {
	var s Scratch
	cfgs := scratchConfigs(t)
	// Run the full matrix twice through one Scratch, longest first, and
	// compare against fresh-scratch runs.
	order := []int{3, 4, 8, 9, 1, 2, 3, 4}
	for pass, idx := range order {
		cfg := cfgs[idx]
		if cfg.Battery != nil {
			cfg.Battery.Reset()
		}
		got, err := SimulateScratch(cfg, &s)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if cfg.Battery != nil {
			cfg.Battery.Reset()
		}
		var fresh Scratch
		want, err := SimulateScratch(cfg, &fresh)
		if err != nil {
			t.Fatalf("pass %d fresh: %v", pass, err)
		}
		for h := range want.GridDraw {
			if bitsDiffer(want.GridDraw[h], got.GridDraw[h]) || bitsDiffer(want.Balanced[h], got.Balanced[h]) {
				t.Fatalf("pass %d (case %d) hour %d: reused scratch diverged", pass, idx, h)
			}
		}
		if s.pending != 0 && countPositive(s.deferred) != s.pending {
			t.Fatalf("pass %d: pending=%d disagrees with ledger", pass, s.pending)
		}
	}
}

// TestSimulateScratchValidates proves the scratch path rejects exactly what
// Simulate rejects.
func TestSimulateScratchValidates(t *testing.T) {
	var s Scratch
	bad := SimConfig{
		Demand:    timeseries.Constant(24, 10),
		Renewable: timeseries.Constant(23, 5),
	}
	_, wantErr := Simulate(bad)
	_, gotErr := SimulateScratch(bad, &s)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("length mismatch accepted: Simulate=%v SimulateScratch=%v", wantErr, gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error text diverged: %q vs %q", wantErr, gotErr)
	}
}

func bitsDiffer(a, b float64) bool {
	return math.Float64bits(a) != math.Float64bits(b)
}

func countPositive(v []float64) int {
	n := 0
	for _, x := range v {
		if x > 0 {
			n++
		}
	}
	return n
}
