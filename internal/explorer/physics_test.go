package explorer_test

// Physics invariants of the hourly model, checked as properties over seeded
// designs on all thirteen paper sites at full 8,760-hour resolution rather
// than as golden snapshots of a few designs. One candidate property fails
// and is pinned as such: operational carbon is not monotone in extra server
// capacity (DESIGN.md, "Known non-properties").

import (
	"math"
	"math/rand"
	"testing"

	"carbonexplorer/internal/battery"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/scheduler"
)

// paperInputs builds 8,760-hour inputs for every paper site.
func paperInputs(tb testing.TB) []*explorer.Inputs {
	tb.Helper()
	var out []*explorer.Inputs
	for _, site := range grid.Sites() {
		in, err := explorer.NewInputs(site)
		if err != nil {
			tb.Fatalf("%s: %v", site.ID, err)
		}
		out = append(out, in)
	}
	return out
}

// seededDesign draws a design for the strategy inside the space's bounds:
// each free axis uniform between zero and its largest lattice value.
func seededDesign(rng *rand.Rand, space explorer.Space, avgDemandMW float64, strat explorer.Strategy) explorer.Design {
	d := explorer.Design{
		WindMW:  rng.Float64() * top(space.WindMW),
		SolarMW: rng.Float64() * top(space.SolarMW),
	}
	if strat.UsesBattery() {
		d.BatteryMWh = rng.Float64() * top(space.BatteryHours) * avgDemandMW
		d.DoD = space.DoD
	}
	if strat.UsesCAS() {
		d.FlexibleRatio = space.FlexibleRatio
		d.ExtraCapacityFrac = rng.Float64() * top(space.ExtraCapacityFracs)
	}
	return d
}

func top(v []float64) float64 { return v[len(v)-1] }

// simulateDesign runs the design's year through SimulateScratch with the
// configuration the Evaluator builds for it, and returns the simulation, the
// renewable supply it ran on, and the battery's parameters (nil without one).
func simulateDesign(tb testing.TB, in *explorer.Inputs, d explorer.Design, s *scheduler.Scratch) (scheduler.RawResult, []float64, *battery.Params) {
	tb.Helper()
	cfg := scheduler.SimConfig{
		Demand:              in.Demand,
		Renewable:           in.RenewableSupply(d.WindMW, d.SolarMW),
		FlexibleRatio:       d.FlexibleRatio,
		DeferralWindowHours: 24,
	}
	if d.FlexibleRatio > 0 {
		cfg.CapacityMW = in.PeakDemandMW() * (1 + d.ExtraCapacityFrac)
	}
	var params *battery.Params
	if d.BatteryMWh > 0 {
		p := d.BatteryTech.Spec().Params(d.BatteryMWh, d.DoD)
		b, err := battery.New(p)
		if err != nil {
			tb.Fatalf("%+v: %v", d, err)
		}
		cfg.Battery, params = b, &p
	}
	res, err := scheduler.SimulateScratch(cfg, s)
	if err != nil {
		tb.Fatalf("%+v: %v", d, err)
	}
	return res, cfg.Renewable.Raw(), params
}

// TestHourlyPhysicsInvariants checks, for seeded designs on every site and
// strategy: each hour's energy balances (renewable supply + battery
// discharge + grid draw = realized load + battery charge + surplus, the
// battery flows read off the state-of-charge trace); deferral moves load in
// time but neither creates nor loses it (Σ balanced = Σ demand); every hour
// either draws from the grid or spills surplus, never both, and neither is
// negative; the state of charge stays in [0, 1] of the usable (DoD-limited)
// range; and coverage stays in [0, 100].
//
// Surplus may dip below zero by rounding alone: a pull sums its takes one by
// one while it counts the room down, so the total can exceed the room by an
// ulp (OR, hour 8387 of one seeded design: −1.4e-14 MW after pulling 64 MW).
// The check allows 1e-12 of the hour's load for that.
func TestHourlyPhysicsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2023))
	var s scheduler.Scratch
	for _, in := range paperInputs(t) {
		space := explorer.DefaultSpace(in)
		ev := in.NewEvaluator()
		ev.DiscardSoCTrace = true
		demandMWh := in.Demand.Sum()
		for _, strat := range explorer.AllStrategies() {
			for k := 0; k < 4; k++ {
				d := seededDesign(rng, space, in.AvgDemandMW(), strat)
				res, supply, bat := simulateDesign(t, in, d, &s)
				var floor, usable, energy float64
				if bat != nil {
					floor = (1 - bat.DepthOfDischarge) * bat.CapacityMWh
					usable = bat.CapacityMWh - floor
					energy = floor + bat.InitialSoC*usable
				}
				balancedMWh := 0.0
				for h, load := range res.Balanced {
					balancedMWh += load
					grid, surplus, soc := res.GridDraw[h], res.Surplus[h], res.BatterySoC[h]
					if grid < 0 || surplus < -1e-12*load || (grid > 0 && surplus > 0) {
						t.Fatalf("%s %+v hour %d: grid draw %v, surplus %v", in.Site.ID, d, h, grid, surplus)
					}
					if soc < 0 || soc > 1 {
						t.Fatalf("%s %+v hour %d: state of charge %v outside [0, 1]", in.Site.ID, d, h, soc)
					}
					var charged, discharged float64
					if bat != nil {
						next := floor + soc*usable
						if delta := next - energy; delta > 0 {
							charged = delta / bat.ChargeEfficiency
						} else {
							discharged = -delta * bat.DischargeEfficiency
						}
						energy = next
					}
					sources, sinks := supply[h]+discharged+grid, load+charged+surplus
					if math.Abs(sources-sinks) > 1e-9*math.Max(sources, sinks) {
						t.Fatalf("%s %+v hour %d: supply %v + discharge %v + grid %v ≠ load %v + charge %v + surplus %v",
							in.Site.ID, d, h, supply[h], discharged, grid, load, charged, surplus)
					}
				}
				if math.Abs(balancedMWh-demandMWh) > 1e-9*demandMWh {
					t.Fatalf("%s %+v: Σ balanced %v MWh, Σ demand %v MWh", in.Site.ID, d, balancedMWh, demandMWh)
				}
				o, err := ev.Evaluate(d)
				if err != nil {
					t.Fatalf("%s %+v: %v", in.Site.ID, d, err)
				}
				if o.CoveragePct < 0 || o.CoveragePct > 100 {
					t.Fatalf("%s %+v: coverage %v%% outside [0, 100]", in.Site.ID, d, o.CoveragePct)
				}
			}
		}
	}
}

// TestMonotoneInRenewablesAndBattery checks the monotonicity Figures 7–9
// rely on: growing wind, solar or battery alone never lowers coverage and
// never raises operational carbon. 75 seeded pairs per site and strategy,
// 3,900 in all; each grows one axis the strategy uses to a larger value
// inside the space's bounds.
func TestMonotoneInRenewablesAndBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(1470))
	for _, in := range paperInputs(t) {
		space := explorer.DefaultSpace(in)
		avg := in.AvgDemandMW()
		ev := in.NewEvaluator()
		ev.DiscardSoCTrace = true
		for _, strat := range explorer.AllStrategies() {
			axes := 2
			if strat.UsesBattery() {
				axes = 3
			}
			for k := 0; k < 75; k++ {
				small := seededDesign(rng, space, avg, strat)
				big := small
				switch rng.Intn(axes) {
				case 0:
					big.WindMW += rng.Float64() * (top(space.WindMW) - small.WindMW)
				case 1:
					big.SolarMW += rng.Float64() * (top(space.SolarMW) - small.SolarMW)
				case 2:
					big.BatteryMWh += rng.Float64() * (top(space.BatteryHours)*avg - small.BatteryMWh)
				}
				lo, err := ev.Evaluate(small)
				if err != nil {
					t.Fatal(err)
				}
				hi, err := ev.Evaluate(big)
				if err != nil {
					t.Fatal(err)
				}
				if hi.CoveragePct < lo.CoveragePct || hi.Operational > lo.Operational {
					t.Fatalf("%s %v: growing %+v to %+v moved coverage %v → %v%%, operational %v → %v g",
						in.Site.ID, strat, small, big, lo.CoveragePct, hi.CoveragePct, lo.Operational, hi.Operational)
				}
			}
		}
	}
}

// TestOperationalNotMonotoneInExtraCapacity pins a known non-property: more
// extra server capacity can raise operational carbon and lower coverage. A
// higher cap lets surplus hours pull more deferred work forward, and that
// surplus then no longer charges the battery for a later deficit. So the
// exact outcome at a cell's high corner is no sound lower bound on the
// operational carbon inside the cell.
func TestOperationalNotMonotoneInExtraCapacity(t *testing.T) {
	ut, err := explorer.NewInputs(grid.MustSite("UT"))
	if err != nil {
		t.Fatal(err)
	}
	avg := ut.AvgDemandMW()
	d := explorer.Design{WindMW: 4 * avg, SolarMW: 4 * avg, BatteryMWh: 8 * avg, DoD: 1, FlexibleRatio: 0.4, ExtraCapacityFrac: 0.10}
	lo, err := ut.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	d.ExtraCapacityFrac = 0.25
	hi, err := ut.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got/want-1) < 5e-4 }
	if !near(float64(lo.Operational), 2.641e8) || !near(float64(hi.Operational), 2.743e8) ||
		!near(lo.CoveragePct, 99.770) || !near(hi.CoveragePct, 99.761) {
		t.Fatalf("UT extra capacity 0.10 → 0.25: operational %.4g → %.4g g, coverage %.3f → %.3f%%; want 2.641e8 → 2.743e8 g and 99.770 → 99.761%% (update DESIGN.md)",
			float64(lo.Operational), float64(hi.Operational), lo.CoveragePct, hi.CoveragePct)
	}

	// How common it is on DefaultSpace's lattice: adjacent extra-capacity
	// steps (all else fixed) that raise operational carbon.
	for _, c := range []struct {
		site  string
		rises int
	}{{"UT", 29}, {"OR", 193}} {
		in, err := explorer.NewInputs(grid.MustSite(c.site))
		if err != nil {
			t.Fatal(err)
		}
		space := explorer.DefaultSpace(in)
		ev := in.NewEvaluator()
		ev.DiscardSoCTrace = true
		steps, rises := 0, 0
		var prev explorer.Outcome
		for i, d := range space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW()) {
			o, err := ev.Evaluate(d)
			if err != nil {
				t.Fatal(err)
			}
			// Extra capacity is the innermost axis of the enumeration.
			if i%len(space.ExtraCapacityFracs) != 0 {
				steps++
				if o.Operational > prev.Operational {
					rises++
				}
			}
			prev = o
		}
		if steps != 1176 || rises != c.rises {
			t.Errorf("%s: %d of %d adjacent extra-capacity steps raise operational carbon, want %d of 1176 (update DESIGN.md)",
				c.site, rises, steps, c.rises)
		}
	}
}
