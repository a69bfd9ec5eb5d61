package explorer

import (
	"math"
	"runtime/debug"

	"carbonexplorer/internal/battery"
	"carbonexplorer/internal/scheduler"
	"carbonexplorer/internal/timeseries"
	"carbonexplorer/internal/units"
)

// Evaluator is the allocation-free form of Inputs.Evaluate. It owns the
// working memory one goroutine needs to evaluate designs back to back — the
// renewable-supply buffer, the scheduler's scratch traces, and a reusable
// battery — so the steady state allocates nothing per design. Results are
// bit-identical to Inputs.Evaluate (pinned by TestEvaluatorGoldenEquivalence
// and the sweep's chaos/merge/resume suites).
//
// An Evaluator is NOT safe for concurrent use: give each worker its own
// (internal/sweep does). The Inputs it wraps stays read-only and shared.
//
// The renewable-supply series is memoized on the last (WindMW, SolarMW)
// pair. The sweep enumerates wind×solar×battery×extra with the battery and
// server axes innermost (Space.Enumerate's deterministic order), so
// consecutive designs usually differ only in battery/scheduler knobs and the
// supply — the most expensive derived series — is rebuilt only when the
// renewable axes actually move.
type Evaluator struct {
	// DiscardSoCTrace skips copying the hourly battery state-of-charge trace
	// into outcomes, leaving Outcome.BatterySoC zero. The sweep's fold drops
	// the trace anyway (checkpoints would balloon otherwise), and
	// SearchContext needs only the optimum's, which it rebuilds on one
	// evaluator with the flag off once the pool has drained; discarding
	// it at the source makes the steady-state path allocation-free. Leave
	// false when every outcome feeds Figure 16-style SoC analysis.
	DiscardSoCTrace bool

	in *Inputs

	// supply is the memoized renewable-supply buffer; renewable is its
	// read-only Series view handed to the scheduler.
	supply      []float64
	renewable   timeseries.Series
	haveSupply  bool
	memoWindMW  float64
	memoSolarMW float64
	// windGenMWh and solarGenMWh are each source's annual generation for the
	// memoized pair — the embodied-carbon inputs, captured during the same
	// pass that builds the supply.
	windGenMWh  float64
	solarGenMWh float64

	scratch scheduler.Scratch
	bat     battery.Battery

	// fallback routes every evaluation through the reference Inputs.Evaluate
	// when the inputs fail the clean-series check below — the optimized path
	// is only taken when skipping the scheduler's per-design series
	// validation is provably safe.
	fallback bool
}

// NewEvaluator returns an Evaluator for these inputs with its supply buffer
// preallocated to the demand horizon.
//
// The demand and shape series are validated here, once: Inputs built by the
// constructors always pass (they validate or repair every series), which
// lets the hot path tell the scheduler its series are clean instead of
// re-scanning them per design. Inputs assembled some other way that fail
// the check still evaluate correctly — through the reference path.
func (in *Inputs) NewEvaluator() *Evaluator {
	e := &Evaluator{in: in, supply: make([]float64, in.Demand.Len())}
	e.renewable = timeseries.Adopt(e.supply)
	n := in.Demand.Len()
	e.fallback = n == 0 ||
		in.Demand.Validate() != nil ||
		in.WindShape.CheckLength(n) != nil || in.WindShape.Validate() != nil ||
		in.SolarShape.CheckLength(n) != nil || in.SolarShape.Validate() != nil
	return e
}

// Inputs returns the shared, read-only inputs this evaluator wraps.
func (e *Evaluator) Inputs() *Inputs { return e.in }

// ensureSupply (re)builds the memoized renewable supply for the given
// investments. It reports false when the scaled supply cannot be proven
// finite — the caller must then take the reference path, which runs the
// full per-sample validation and produces its exact errors.
//
//carbonlint:hotpath
func (e *Evaluator) ensureSupply(windMW, solarMW float64) bool {
	if e.haveSupply && windMW == e.memoWindMW && solarMW == e.memoSolarMW { //carbonlint:allow floatcmp memo key wants exact bits: enumerated grids repeat identical values, and a near-miss must rebuild
		return true
	}
	// Invalidate first: a panic below (fault injection) must not leave the
	// memo claiming a half-built buffer.
	e.haveSupply = false
	// O(1) overflow guard replacing the per-sample scan: rounding is
	// monotone, so every scaled sample is bounded by the scaled maxima —
	// a finite bound proves the whole buffer finite (shapes are already
	// known non-negative from the construction-time check).
	bound := 0.0
	if windMW > 0 {
		wmax := e.in.windShapeMax()
		bound += wmax * scaleToMaxFactor(wmax, windMW)
	}
	if solarMW > 0 {
		smax := e.in.solarShapeMax()
		bound += smax * scaleToMaxFactor(smax, solarMW)
	}
	if math.IsInf(bound, 1) {
		return false
	}
	timeseries.Zero(e.supply)
	e.windGenMWh, e.solarGenMWh = e.in.addSupplyInto(e.supply, windMW, solarMW)
	e.memoWindMW, e.memoSolarMW = windMW, solarMW
	e.haveSupply = true
	return true
}

// Evaluate simulates one design for one year and returns its outcome,
// bit-identical to Inputs.Evaluate but reusing the evaluator's buffers.
// The accounting mirrors evaluate.go step for step; where passes are fused
// (grid pricing + grid total) the accumulators are independent, so each
// still sees the exact add sequence of the reference.
//
// The //carbonlint:hotpath marker is the static face of the runtime gate:
// hotalloc rejects allocating constructs in exactly the functions
// TestEvaluateSteadyStateZeroAllocs measures (the marker census is pinned
// by TestHotpathMarkersNameZeroAllocGatedSymbols).
//
//carbonlint:hotpath
func (e *Evaluator) Evaluate(d Design) (Outcome, error) {
	in := e.in
	if err := d.Validate(); err != nil {
		return Outcome{}, err
	}
	if e.fallback || !e.ensureSupply(d.WindMW, d.SolarMW) {
		// Inputs outside the clean-series guarantee, or a supply that may
		// overflow: the reference path validates per sample and produces
		// the exact reference errors and bytes by definition.
		return in.Evaluate(d)
	}

	var bat *battery.Battery
	if d.BatteryMWh > 0 {
		if err := e.bat.Init(d.BatteryTech.Spec().Params(d.BatteryMWh, d.DoD)); err != nil {
			return Outcome{}, err
		}
		bat = &e.bat
	}

	capacityMW := 0.0
	if d.FlexibleRatio > 0 {
		capacityMW = in.peakDemandMW * (1 + d.ExtraCapacityFrac)
	}

	res, err := scheduler.SimulateScratch(scheduler.SimConfig{
		Demand:              in.Demand,
		Renewable:           e.renewable,
		Battery:             bat,
		FlexibleRatio:       d.FlexibleRatio,
		CapacityMW:          capacityMW,
		DeferralWindowHours: 24,
		// Provably passes Validate: demand and shapes were validated when
		// the evaluator was built, the supply buffer is their non-negative
		// combination proven finite above, lengths match by construction,
		// and the scalars come from the validated Design.
		AssumeValid: true,
	}, &e.scratch)
	if err != nil {
		return Outcome{}, err
	}

	out := Outcome{Design: d}

	// Operational carbon and grid total in one pass: two independent
	// accumulators, each adding in hour order exactly as the reference's
	// separate loops do.
	var operational units.GramsCO2
	gridSum := 0.0
	gridCI := in.GridCI.Raw()
	for h, draw := range res.GridDraw {
		gridSum += draw
		if draw <= 0 {
			continue
		}
		operational += units.MegaWattHours(draw).Carbon(units.CarbonIntensity(gridCI[h]))
	}
	out.Operational = operational
	out.GridEnergyMWh = gridSum
	out.SurplusMWh = res.SurplusMWh
	out.CoveragePct = CoverageFromGridDraw(out.GridEnergyMWh, in.demandTotalMWh)

	// Embodied: renewables are charged for everything the farms generate —
	// the per-source sums captured when the memoized supply was built.
	out.EmbodiedRenewables = in.Embodied.RenewableEmbodied(
		units.MegaWattHours(e.windGenMWh), units.MegaWattHours(e.solarGenMWh))

	if bat != nil {
		days := float64(in.Demand.Len()) / 24
		out.BatteryCyclesPerDay = bat.EquivalentFullCycles() / days
		if d.BatteryTech == battery.LFPCell {
			out.EmbodiedBattery = in.Embodied.BatteryEmbodiedAnnual(
				units.MegaWattHours(d.BatteryMWh), d.DoD, out.BatteryCyclesPerDay)
		} else {
			out.EmbodiedBattery = chemistryEmbodiedAnnual(
				d.BatteryTech.Spec(), units.MegaWattHours(d.BatteryMWh), d.DoD, out.BatteryCyclesPerDay)
		}
		if !e.DiscardSoCTrace {
			out.BatterySoC = timeseries.FromValues(res.BatterySoC)
		}
	}

	if d.FlexibleRatio > 0 && d.ExtraCapacityFrac > 0 {
		out.EmbodiedServers = in.Embodied.ServerEmbodiedAnnual(
			units.MegaWatts(d.ExtraCapacityFrac * in.peakDemandMW))
	}
	if extra := res.PeakLoadMW - in.peakDemandMW; extra > 0 {
		out.ExtraCapacityUsedFrac = extra / in.peakDemandMW
	}

	out.Embodied = out.EmbodiedRenewables + out.EmbodiedBattery + out.EmbodiedServers
	return out, nil
}

// EvaluateSafe runs one evaluation with panic containment: a panicking
// design surfaces as a *PanicError instead of killing the process. The
// fault-injection hook (Inputs.EvalHook), when set, runs first and may fail
// the design. The evaluation pool (EvaluateAll) evaluates through this entry
// point so a single hostile design can never sink a whole search or sweep.
// A recovered panic leaves the evaluator reusable: the memo was invalidated
// before the buffer was touched, and the scheduler scratch re-zeroes itself
// on the next run.
func (e *Evaluator) EvaluateSafe(d Design) (o Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if e.in.EvalHook != nil {
		if err := e.in.EvalHook(d); err != nil {
			return Outcome{}, err
		}
	}
	return e.Evaluate(d)
}
