package explorer

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/timeseries"
	"carbonexplorer/internal/units"
)

// cachedInputs builds Inputs once per site for the whole test run; the
// underlying data is treated as read-only by Evaluate.
var (
	inputsMu    sync.Mutex
	inputsCache = map[string]*Inputs{}
)

func siteInputs(tb testing.TB, id string) *Inputs {
	tb.Helper()
	inputsMu.Lock()
	defer inputsMu.Unlock()
	if in, ok := inputsCache[id]; ok {
		return in
	}
	in, err := NewInputs(grid.MustSite(id))
	if err != nil {
		tb.Fatal(err)
	}
	inputsCache[id] = in
	return in
}

func TestCoverageFormula(t *testing.T) {
	demand := timeseries.FromValues([]float64{10, 10, 10, 10})
	ren := timeseries.FromValues([]float64{10, 5, 20, 0})
	// Uncovered = 0 + 5 + 0 + 10 = 15 of 40 → 62.5%.
	cov, err := Coverage(demand, ren)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov-62.5) > 1e-9 {
		t.Fatalf("coverage = %v, want 62.5", cov)
	}
}

func TestCoverageEdges(t *testing.T) {
	d := timeseries.FromValues([]float64{10})
	if cov, _ := Coverage(d, timeseries.FromValues([]float64{100})); cov != 100 {
		t.Fatalf("over-supply coverage = %v, want 100", cov)
	}
	if cov, _ := Coverage(d, timeseries.FromValues([]float64{0})); cov != 0 {
		t.Fatalf("zero-supply coverage = %v, want 0", cov)
	}
	if cov, _ := Coverage(timeseries.New(3), timeseries.New(3)); cov != 100 {
		t.Fatalf("zero-demand coverage = %v, want 100", cov)
	}
	if _, err := Coverage(d, timeseries.New(2)); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestCoverageFromGridDraw(t *testing.T) {
	if got := CoverageFromGridDraw(25, 100); got != 75 {
		t.Fatalf("got %v", got)
	}
	if got := CoverageFromGridDraw(0, 100); got != 100 {
		t.Fatalf("got %v", got)
	}
	if got := CoverageFromGridDraw(150, 100); got != 0 {
		t.Fatalf("clamp low: %v", got)
	}
	if got := CoverageFromGridDraw(10, 0); got != 100 {
		t.Fatalf("zero demand: %v", got)
	}
}

func TestNewInputs(t *testing.T) {
	in := siteInputs(t, "UT")
	if in.Demand.Len() != timeseries.HoursPerYear {
		t.Fatalf("demand length %d", in.Demand.Len())
	}
	if math.Abs(in.AvgDemandMW()-19)/19 > 0.05 {
		t.Fatalf("UT average demand %v, want ~19", in.AvgDemandMW())
	}
	if in.PeakDemandMW() <= in.AvgDemandMW() {
		t.Fatalf("peak must exceed average")
	}
}

func TestNewInputsFromSeries(t *testing.T) {
	n := 48
	d := timeseries.Constant(n, 10)
	w := timeseries.Constant(n, 5)
	s := timeseries.Constant(n, 3)
	ci := timeseries.Constant(n, 400)
	emb := carbon.DefaultEmbodiedParams()
	in, err := NewInputsFromSeries(grid.MustSite("UT"), d, w, s, ci, emb)
	if err != nil {
		t.Fatal(err)
	}
	if in.PeakDemandMW() != 10 {
		t.Fatalf("peak = %v", in.PeakDemandMW())
	}
	if _, err := NewInputsFromSeries(grid.MustSite("UT"), timeseries.New(0), w, s, ci, emb); err == nil {
		t.Fatal("empty demand should error")
	}
	if _, err := NewInputsFromSeries(grid.MustSite("UT"), d, timeseries.New(3), s, ci, emb); err == nil {
		t.Fatal("length mismatch should error")
	}
	bad := emb
	bad.ServerPowerKW = 0
	if _, err := NewInputsFromSeries(grid.MustSite("UT"), d, w, s, ci, bad); err == nil {
		t.Fatal("invalid embodied params should error")
	}
}

func TestRenewableSupplyScaling(t *testing.T) {
	in := siteInputs(t, "UT")
	sup := in.RenewableSupply(100, 0)
	if math.Abs(sup.MaxValue()-100) > 1e-6 {
		t.Fatalf("wind-only supply max = %v, want 100", sup.MaxValue())
	}
	zero := in.RenewableSupply(0, 0)
	if zero.Sum() != 0 {
		t.Fatalf("zero investment should produce zero supply")
	}
}

func TestRenewableSupplyNoWindRegion(t *testing.T) {
	// North Carolina's grid has no wind; investing in wind there buys
	// nothing (the paper's "No Wind" panel in Figure 7).
	in := siteInputs(t, "NC")
	windOnly := in.RenewableSupply(1000, 0)
	if windOnly.Sum() != 0 {
		t.Fatalf("NC wind supply = %v, want 0", windOnly.Sum())
	}
}

func TestCoverageMonotonicInInvestment(t *testing.T) {
	in := siteInputs(t, "UT")
	prev := -1.0
	for _, scale := range []float64{0, 20, 50, 100, 200} {
		cov, err := in.CoverageFor(scale, scale)
		if err != nil {
			t.Fatal(err)
		}
		if cov < prev-1e-9 {
			t.Fatalf("coverage decreased with investment: %v -> %v", prev, cov)
		}
		prev = cov
	}
}

func TestSolarOnlyCoverageCapped(t *testing.T) {
	// Paper: regions relying entirely on solar cannot get much beyond ~50%
	// coverage because solar is only available during the day.
	in := siteInputs(t, "NC")
	cov, err := in.CoverageFor(0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if cov > 70 {
		t.Fatalf("solar-only coverage = %v, should be capped well below 100", cov)
	}
	if cov < 40 {
		t.Fatalf("solar-only coverage = %v, too low for massive investment", cov)
	}
}

func TestEvaluateRenewablesOnly(t *testing.T) {
	in := siteInputs(t, "UT")
	o, err := in.Evaluate(Design{WindMW: 239, SolarMW: 694})
	if err != nil {
		t.Fatal(err)
	}
	if o.CoveragePct <= 0 || o.CoveragePct >= 100 {
		t.Fatalf("coverage = %v, expected partial", o.CoveragePct)
	}
	if o.Operational <= 0 {
		t.Fatalf("partial coverage must leave operational carbon")
	}
	if o.EmbodiedBattery != 0 || o.EmbodiedServers != 0 {
		t.Fatalf("renewables-only design should have no battery/server embodied")
	}
	if o.EmbodiedRenewables <= 0 {
		t.Fatalf("renewable embodied must be positive")
	}
	if o.Total() != o.Operational+o.Embodied {
		t.Fatalf("total mismatch")
	}
}

func TestEvaluateBatteryImprovesCoverage(t *testing.T) {
	in := siteInputs(t, "UT")
	base, err := in.Evaluate(Design{WindMW: 100, SolarMW: 100})
	if err != nil {
		t.Fatal(err)
	}
	withBat, err := in.Evaluate(Design{WindMW: 100, SolarMW: 100, BatteryMWh: 4 * in.AvgDemandMW(), DoD: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if withBat.CoveragePct <= base.CoveragePct {
		t.Fatalf("battery should improve coverage: %v -> %v", base.CoveragePct, withBat.CoveragePct)
	}
	if withBat.EmbodiedBattery <= 0 {
		t.Fatalf("battery embodied must be charged")
	}
	if withBat.BatteryCyclesPerDay <= 0 {
		t.Fatalf("battery should cycle")
	}
	if withBat.BatterySoC.Len() != in.Demand.Len() {
		t.Fatalf("SoC trace missing")
	}
}

func TestEvaluateCASImprovesCoverage(t *testing.T) {
	in := siteInputs(t, "UT")
	base, err := in.Evaluate(Design{WindMW: 100, SolarMW: 100})
	if err != nil {
		t.Fatal(err)
	}
	cas, err := in.Evaluate(Design{WindMW: 100, SolarMW: 100, FlexibleRatio: 0.4, ExtraCapacityFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if cas.CoveragePct <= base.CoveragePct {
		t.Fatalf("CAS should improve coverage: %v -> %v", base.CoveragePct, cas.CoveragePct)
	}
	if cas.ExtraCapacityUsedFrac <= 0 {
		t.Fatalf("CAS should use extra capacity")
	}
	if cas.EmbodiedServers <= 0 {
		t.Fatalf("extra servers must be charged")
	}
}

func TestEvaluateValidatesDesign(t *testing.T) {
	in := siteInputs(t, "UT")
	bad := []Design{
		{WindMW: -1},
		{BatteryMWh: 10, DoD: 0},
		{BatteryMWh: 10, DoD: 1.5},
		{FlexibleRatio: -0.1},
		{FlexibleRatio: 1.1},
		{ExtraCapacityFrac: -1},
	}
	for i, d := range bad {
		if _, err := in.Evaluate(d); err == nil {
			t.Errorf("design %d should be invalid", i)
		}
	}
}

func TestSearchFindsOptimum(t *testing.T) {
	in := siteInputs(t, "UT")
	avg := in.AvgDemandMW()
	space := Space{
		WindMW:             []float64{0, 2 * avg, 6 * avg},
		SolarMW:            []float64{0, 2 * avg, 6 * avg},
		BatteryHours:       []float64{0, 4},
		ExtraCapacityFracs: []float64{0, 0.25},
		DoD:                1.0,
		FlexibleRatio:      0.4,
	}
	res, err := in.Search(space, RenewablesBatteryCAS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points evaluated")
	}
	for _, p := range res.Points {
		if p.Total() < res.Optimal.Total() {
			t.Fatalf("optimal %v not minimal: found %v", res.Optimal.Total(), p.Total())
		}
	}
}

// TestSearchKeepsOnlyTheOptimumTrace pins how SearchContext's pool handles
// SoC traces: no point carries one, the optimum carries exactly the trace
// (and every other bit) the reference path gives it, and rebuilding it does
// not run EvalHook a second time for any design.
func TestSearchKeepsOnlyTheOptimumTrace(t *testing.T) {
	in := *siteInputs(t, "UT") // a copy: the hook must not leak into the cache
	avg := in.AvgDemandMW()
	space := Space{
		WindMW:       []float64{0, 2 * avg, 6 * avg},
		SolarMW:      []float64{0, 2 * avg, 6 * avg},
		BatteryHours: []float64{0, 4, 8},
		DoD:          1.0,
	}
	var mu sync.Mutex
	calls := map[Design]int{}
	in.EvalHook = func(d Design) error {
		mu.Lock()
		defer mu.Unlock()
		calls[d]++
		return nil
	}
	res, err := in.Search(space, RenewablesBattery)
	if err != nil {
		t.Fatal(err)
	}
	designs := space.Enumerate(RenewablesBattery, avg)
	if len(calls) != len(designs) {
		t.Fatalf("EvalHook saw %d distinct designs, want %d", len(calls), len(designs))
	}
	for _, d := range designs {
		if calls[d] != 1 {
			t.Fatalf("EvalHook ran %d times for %+v, want 1", calls[d], d)
		}
	}
	for _, p := range res.Points {
		if p.BatterySoC.Len() != 0 {
			t.Fatalf("point %+v kept a %d-hour SoC trace", p.Design, p.BatterySoC.Len())
		}
	}
	if res.Optimal.Design.BatteryMWh == 0 {
		t.Fatal("optimum has no battery, so its trace goes unchecked: widen the battery axis")
	}
	in.EvalHook = nil
	want, err := in.Evaluate(res.Optimal.Design)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Optimal, want) {
		t.Fatalf("optimum differs from the reference evaluation of its design:\nsearch:    %+v\nreference: %+v", res.Optimal, want)
	}
	if want.BatterySoC.Len() != in.Demand.Len() {
		t.Fatalf("reference SoC trace has %d hours, want %d", want.BatterySoC.Len(), in.Demand.Len())
	}
}

func TestSearchRestrictsByStrategy(t *testing.T) {
	in := siteInputs(t, "UT")
	avg := in.AvgDemandMW()
	space := Space{
		WindMW:             []float64{2 * avg},
		SolarMW:            []float64{2 * avg},
		BatteryHours:       []float64{0, 4},
		ExtraCapacityFracs: []float64{0, 0.5},
		DoD:                1.0,
		FlexibleRatio:      0.4,
	}
	res, err := in.Search(space, RenewablesOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Design.BatteryMWh != 0 || p.Design.FlexibleRatio != 0 {
			t.Fatalf("renewables-only search leaked battery/CAS: %+v", p.Design)
		}
	}
	if len(res.Points) != 1 {
		t.Fatalf("restricted space should dedupe to 1 point, got %d", len(res.Points))
	}
}

func TestSearchEmptySpaceErrors(t *testing.T) {
	in := siteInputs(t, "UT")
	if _, err := in.Search(Space{}, RenewablesOnly); err == nil {
		t.Fatal("empty space should error")
	}
}

func TestParetoFrontier(t *testing.T) {
	mk := func(op, emb float64) Outcome {
		return Outcome{Operational: toG(op), Embodied: toG(emb)}
	}
	points := []Outcome{
		mk(100, 10), // frontier
		mk(50, 20),  // frontier
		mk(60, 30),  // dominated by (50, 20)
		mk(10, 40),  // frontier
		mk(10, 50),  // dominated
	}
	f := ParetoFrontier(points)
	if len(f) != 3 {
		t.Fatalf("frontier size = %d, want 3", len(f))
	}
	// Sorted by embodied ascending, operational strictly decreasing.
	for i := 1; i < len(f); i++ {
		if f[i].Embodied < f[i-1].Embodied {
			t.Fatalf("frontier not sorted by embodied")
		}
		if f[i].Operational >= f[i-1].Operational {
			t.Fatalf("frontier operational not strictly decreasing")
		}
	}
}

func TestParetoFrontierEmpty(t *testing.T) {
	if f := ParetoFrontier(nil); len(f) != 0 {
		t.Fatalf("empty input should give empty frontier")
	}
}

func TestInvestmentForCoverage(t *testing.T) {
	in := siteInputs(t, "UT")
	mw95, ok, err := in.InvestmentForCoverage(95, 0.5, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("95% should be achievable in a hybrid region")
	}
	mw50, ok, err := in.InvestmentForCoverage(50, 0.5, 1e6)
	if err != nil || !ok {
		t.Fatalf("50%% should be achievable: %v", err)
	}
	if mw95 <= mw50 {
		t.Fatalf("higher coverage should need more investment: %v vs %v", mw95, mw50)
	}
}

func TestInvestmentForCoverageUnreachable(t *testing.T) {
	// Solar-only mix in a solar-only region cannot reach 99%.
	in := siteInputs(t, "NC")
	_, ok, err := in.InvestmentForCoverage(99, 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("99% solar-only coverage should be unreachable")
	}
}

func TestInvestmentForCoverageValidation(t *testing.T) {
	in := siteInputs(t, "UT")
	if _, _, err := in.InvestmentForCoverage(120, 0.5, 1e6); err == nil {
		t.Fatal("bad target should error")
	}
	if _, _, err := in.InvestmentForCoverage(50, 2, 1e6); err == nil {
		t.Fatal("bad wind fraction should error")
	}
}

func TestMinBatteryHoursFor247(t *testing.T) {
	in := siteInputs(t, "UT")
	avg := in.AvgDemandMW()
	hours, ok, err := in.MinBatteryHoursFor247(6*avg, 6*avg, 99.9, 48)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("24/7 should be achievable with large renewables and battery")
	}
	if hours <= 0 || hours > 48 {
		t.Fatalf("battery hours = %v", hours)
	}
	// Verify the returned size actually achieves the target.
	o, err := in.Evaluate(Design{WindMW: 6 * avg, SolarMW: 6 * avg, BatteryMWh: (hours + 0.02) * avg, DoD: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if o.CoveragePct < 99.9 {
		t.Fatalf("returned battery size achieves only %v%%", o.CoveragePct)
	}
}

func TestMinBatteryHoursUnreachable(t *testing.T) {
	in := siteInputs(t, "UT")
	// With no renewables at all, no battery can help (nothing to charge it).
	_, ok, err := in.MinBatteryHoursFor247(0, 0, 99.9, 24)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("24/7 without renewables should be unreachable")
	}
}

func TestStrategyHelpers(t *testing.T) {
	if RenewablesOnly.UsesBattery() || RenewablesOnly.UsesCAS() {
		t.Fatal("renewables-only should use nothing extra")
	}
	if !RenewablesBattery.UsesBattery() || RenewablesBattery.UsesCAS() {
		t.Fatal("battery strategy flags wrong")
	}
	if RenewablesCAS.UsesBattery() || !RenewablesCAS.UsesCAS() {
		t.Fatal("CAS strategy flags wrong")
	}
	if !RenewablesBatteryCAS.UsesBattery() || !RenewablesBatteryCAS.UsesCAS() {
		t.Fatal("combined strategy flags wrong")
	}
	if len(AllStrategies()) != 4 {
		t.Fatal("want 4 strategies")
	}
	if RenewablesBattery.String() != "Renewables + Battery" {
		t.Fatalf("name = %q", RenewablesBattery.String())
	}
	if got := Strategy(9).String(); got != "strategy(9)" {
		t.Fatalf("out-of-range strategy name %q", got)
	}
}

func TestPropertyCoverageMonotoneInBattery(t *testing.T) {
	// More battery never reduces coverage, at any investment level.
	in := siteInputs(t, "UT")
	avg := in.AvgDemandMW()
	for _, scale := range []float64{1, 3, 6} {
		prev := -1.0
		for _, hours := range []float64{0, 1, 2, 4, 8, 16} {
			d := Design{WindMW: scale * avg, SolarMW: scale * avg}
			if hours > 0 {
				d.BatteryMWh = hours * avg
				d.DoD = 1.0
			}
			o, err := in.Evaluate(d)
			if err != nil {
				t.Fatal(err)
			}
			if o.CoveragePct < prev-1e-9 {
				t.Fatalf("coverage fell with battery growth at %vx/%vh: %v -> %v",
					scale, hours, prev, o.CoveragePct)
			}
			prev = o.CoveragePct
		}
	}
}

func TestPropertyOperationalMonotoneInRenewables(t *testing.T) {
	// More renewables never increase operational carbon (they may increase
	// embodied, which is the trade-off the optimizer navigates).
	in := siteInputs(t, "TX")
	avg := in.AvgDemandMW()
	prev := math.Inf(1)
	for _, scale := range []float64{0, 1, 2, 4, 8, 16} {
		o, err := in.Evaluate(Design{WindMW: scale * avg, SolarMW: scale * avg})
		if err != nil {
			t.Fatal(err)
		}
		if float64(o.Operational) > prev+1 {
			t.Fatalf("operational carbon rose with renewables at %vx", scale)
		}
		prev = float64(o.Operational)
	}
}

func TestOutcomeAccountingIdentities(t *testing.T) {
	in := siteInputs(t, "NM")
	avg := in.AvgDemandMW()
	o, err := in.Evaluate(Design{
		WindMW: 2 * avg, SolarMW: 2 * avg,
		BatteryMWh: 3 * avg, DoD: 0.9,
		FlexibleRatio: 0.4, ExtraCapacityFrac: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Embodied != o.EmbodiedRenewables+o.EmbodiedBattery+o.EmbodiedServers {
		t.Fatalf("embodied breakdown does not sum")
	}
	if o.Total() != o.Operational+o.Embodied {
		t.Fatalf("total != operational + embodied")
	}
	if o.GridEnergyMWh < 0 || o.SurplusMWh < 0 {
		t.Fatalf("negative energy accounting")
	}
	// Coverage consistency with grid energy.
	want := CoverageFromGridDraw(o.GridEnergyMWh, in.Demand.Sum())
	if math.Abs(want-o.CoveragePct) > 1e-9 {
		t.Fatalf("coverage %v inconsistent with grid energy (%v)", o.CoveragePct, want)
	}
}

func TestIntensitiesOrdering(t *testing.T) {
	in := siteInputs(t, "UT")
	d := Design{
		WindMW: 4 * in.AvgDemandMW(), SolarMW: 4 * in.AvgDemandMW(),
		BatteryMWh: 4 * in.AvgDemandMW(), DoD: 1.0,
		FlexibleRatio: 0.4, ExtraCapacityFrac: 0.5,
	}
	sc, err := in.Intensities(d)
	if err != nil {
		t.Fatal(err)
	}
	grid := sc.GridMix.Mean()
	nz := sc.NetZero.Mean()
	tfs := sc.TwentyFourSeven.Mean()
	// Paper Figure 6: grid mix > Net Zero > 24/7.
	if !(grid > nz && nz > tfs) {
		t.Fatalf("intensity ordering violated: grid=%v netzero=%v 24/7=%v", grid, nz, tfs)
	}
	if tfs < 0 {
		t.Fatalf("negative intensity")
	}
}

func toG(v float64) units.GramsCO2 { return units.GramsCO2(v) }
