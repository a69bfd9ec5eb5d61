package explorer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
)

// Space bounds the exhaustive design-space search. Datacenter operators
// specify the candidate grids per dimension; the search evaluates their
// cross product.
type Space struct {
	// WindMW and SolarMW are candidate renewable investments.
	WindMW  []float64
	SolarMW []float64
	// BatteryHours are candidate storage sizes expressed in hours of
	// average datacenter compute (the paper's Figure 9 unit); hours are
	// converted to MWh via the site's average demand.
	BatteryHours []float64
	// ExtraCapacityFracs are candidate extra server capacities as a
	// fraction of baseline peak demand.
	ExtraCapacityFracs []float64
	// DoD is the battery depth of discharge used for battery designs.
	DoD float64
	// FlexibleRatio is the scheduler's flexible workload ratio for CAS
	// designs.
	FlexibleRatio float64
}

// DefaultSpace returns a paper-scaled search grid for a site: renewable
// investments ranging to several multiples of average demand, battery sizes
// up to 16 compute-hours, and extra capacity up to 100%.
func DefaultSpace(in *Inputs) Space {
	avg := in.AvgDemandMW()
	scale := func(ms ...float64) []float64 {
		out := make([]float64, len(ms))
		for i, m := range ms {
			out[i] = m * avg
		}
		return out
	}
	return Space{
		WindMW:             scale(0, 1, 2, 4, 6, 10, 16),
		SolarMW:            scale(0, 1, 2, 4, 6, 10, 16),
		BatteryHours:       []float64{0, 1, 2, 4, 8, 16},
		ExtraCapacityFracs: []float64{0, 0.1, 0.25, 0.5, 1.0},
		DoD:                1.0,
		FlexibleRatio:      0.40,
	}
}

// restrict returns the space with dimensions unused by the strategy pinned
// to zero.
func (s Space) restrict(strategy Strategy) Space {
	out := s
	if !strategy.UsesBattery() {
		out.BatteryHours = []float64{0}
	}
	if !strategy.UsesCAS() {
		out.ExtraCapacityFracs = []float64{0}
		out.FlexibleRatio = 0
	}
	return out
}

// Enumerate expands the space into the concrete, deduplicated design list a
// search over it would evaluate, with dimensions unused by the strategy
// pinned to zero. The order is deterministic for a given space, which lets
// external engines (internal/sweep) index designs by position across runs —
// a sweep checkpoint records per-design status against exactly this list.
func (s Space) Enumerate(strategy Strategy, avgDemandMW float64) []Design {
	return s.restrict(strategy).designs(avgDemandMW)
}

// designs expands the space into concrete designs.
func (s Space) designs(avgDemandMW float64) []Design {
	var out []Design
	for _, w := range s.WindMW {
		for _, sol := range s.SolarMW {
			for _, bh := range s.BatteryHours {
				for _, ec := range s.ExtraCapacityFracs {
					d := Design{
						WindMW:            w,
						SolarMW:           sol,
						BatteryMWh:        bh * avgDemandMW,
						DoD:               s.DoD,
						FlexibleRatio:     s.FlexibleRatio,
						ExtraCapacityFrac: ec,
					}
					if d.BatteryMWh == 0 {
						d.DoD = 0
					}
					if s.FlexibleRatio == 0 {
						d.ExtraCapacityFrac = 0
					}
					out = append(out, d)
				}
			}
		}
	}
	return dedupeDesigns(out)
}

func dedupeDesigns(in []Design) []Design {
	seen := make(map[Design]bool, len(in))
	out := in[:0]
	for _, d := range in {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// SearchResult holds every evaluated point plus the carbon-optimal one.
type SearchResult struct {
	// Strategy echoes the searched strategy.
	Strategy Strategy
	// Points are all evaluated outcomes, in enumeration order. Their
	// BatterySoC traces are empty: the pool discards them, since only the
	// optimum's is read.
	Points []Outcome
	// Optimal is the outcome with minimum total (operational + embodied)
	// carbon; ties break toward higher coverage. It alone carries its
	// BatterySoC trace (for a battery design), bit for bit the one
	// Inputs.Evaluate(Optimal.Design) returns.
	Optimal Outcome
	// Report accounts for every design that was evaluated, failed, or was
	// skipped by cancellation. A sweep with failures still yields an Optimal
	// over the surviving points; inspect Report to see what was lost.
	Report SearchReport
}

// SearchReport summarizes the health of one sweep.
type SearchReport struct {
	// Evaluated is the number of designs evaluated successfully.
	Evaluated int
	// Failures records every design whose evaluation returned an error or
	// panicked, with the offending design attached.
	Failures []DesignError
	// Skipped is the number of designs never evaluated because the sweep
	// was cancelled first.
	Skipped int
}

// DesignError attaches the offending design to an evaluation failure.
type DesignError struct {
	// Design is the point that failed.
	Design Design
	// Err is the evaluation error (a *PanicError if the worker panicked).
	Err error
}

func (e DesignError) Error() string {
	return fmt.Sprintf("explorer: design {wind %.1f MW, solar %.1f MW, battery %.1f MWh, flex %.2f, extra %.2f}: %v",
		e.Design.WindMW, e.Design.SolarMW, e.Design.BatteryMWh, e.Design.FlexibleRatio, e.Design.ExtraCapacityFrac, e.Err)
}

func (e DesignError) Unwrap() error { return e.Err }

// PanicError is a panic recovered from an evaluation worker, contained to
// the design that triggered it.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("explorer: evaluation panicked: %v", e.Value)
}

// ErrAllDesignsFailed is returned (wrapped) by searches in which not a
// single design evaluated successfully.
var ErrAllDesignsFailed = errors.New("explorer: all designs failed")

// Search exhaustively evaluates the space under the given strategy, in
// parallel, and returns all points plus the carbon-optimal one. It is
// SearchContext without cancellation.
func (in *Inputs) Search(space Space, strategy Strategy) (SearchResult, error) {
	//carbonlint:allow ctxflow Search is the documented non-cancellable wrapper; callers with a ctx use SearchContext
	return in.SearchContext(context.Background(), space, strategy)
}

// SearchContext exhaustively evaluates the space under the given strategy,
// in parallel, honouring ctx between design evaluations.
//
// The sweep degrades gracefully: a design whose evaluation fails (or
// panics — panics are recovered per worker) is recorded in the result's
// Report and excluded from Points, and the optimum is computed over the
// surviving designs. Only when every design fails does SearchContext return
// a wrapped ErrAllDesignsFailed.
//
// On cancellation the partial result is still returned — Points holds
// whatever finished, Report.Skipped counts the rest — alongside ctx's
// error, so callers can print partial results after an interrupt.
func (in *Inputs) SearchContext(ctx context.Context, space Space, strategy Strategy) (SearchResult, error) {
	designs := space.restrict(strategy).designs(in.AvgDemandMW())
	if len(designs) == 0 {
		return SearchResult{}, fmt.Errorf("explorer: empty search space")
	}

	// One Evaluator per pool worker. The pool copies no SoC trace; the
	// optimum's is rebuilt after it drains.
	evs := make([]*Evaluator, min(runtime.GOMAXPROCS(0), len(designs)))
	for w := range evs {
		evs[w] = in.NewEvaluator()
		evs[w].DiscardSoCTrace = true
	}
	points := make([]Outcome, len(designs))
	errs := make([]error, len(designs))
	in.EvaluateAll(ctx, evs, designs, points, errs)

	res := SearchResult{Strategy: strategy}
	var survivors []Outcome
	for i := range designs {
		switch {
		case errors.Is(errs[i], ErrSkipped):
			res.Report.Skipped++
		case errs[i] != nil:
			res.Report.Failures = append(res.Report.Failures, DesignError{Design: designs[i], Err: errs[i]})
		default:
			res.Report.Evaluated++
			survivors = append(survivors, points[i])
		}
	}
	res.Points = survivors

	if len(survivors) == 0 {
		err := ctx.Err()
		if err == nil {
			err = fmt.Errorf("%w: %d failures, first: %w",
				ErrAllDesignsFailed, len(res.Report.Failures), res.Report.Failures[0])
		}
		return res, err
	}
	res.Optimal = survivors[0]
	for _, p := range survivors[1:] {
		if Better(p, res.Optimal) {
			res.Optimal = p
		}
	}
	if res.Optimal.Design.BatteryMWh > 0 {
		// Rebuild the optimum's SoC trace on a drained pool evaluator.
		// Evaluation is deterministic, so every other field comes back with
		// the same bits. It bypasses EvalHook, which has seen this design
		// once already.
		ev := evs[0]
		ev.DiscardSoCTrace = false
		opt, err := ev.Evaluate(res.Optimal.Design)
		if err != nil {
			return res, fmt.Errorf("explorer: re-evaluating the optimum for its SoC trace: %w", err)
		}
		res.Optimal = opt
	}
	return res, ctx.Err()
}

// Better reports whether a should replace b as the carbon optimum: lower
// total (operational + embodied) carbon, ties toward higher coverage. It is
// the one optimum ordering of searches, sweep folds and checkpoint merges
// (serve's optimum query mirrors it), so they all agree on exactly tied
// designs.
func Better(a, b Outcome) bool {
	if a.Total() != b.Total() { //carbonlint:allow floatcmp exact-bits tie-break makes the optimum independent of evaluation order
		return a.Total() < b.Total()
	}
	return a.CoveragePct > b.CoveragePct
}

// ParetoFrontier extracts the outcomes not dominated in the
// (operational, embodied) plane: a point is on the frontier if no other
// point has both lower-or-equal operational and lower-or-equal embodied
// carbon (with at least one strictly lower). The result is sorted by
// increasing embodied carbon.
func ParetoFrontier(points []Outcome) []Outcome {
	sorted := make([]Outcome, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Embodied != sorted[j].Embodied { //carbonlint:allow floatcmp exact-bits sort key keeps the frontier order deterministic
			return sorted[i].Embodied < sorted[j].Embodied
		}
		return sorted[i].Operational < sorted[j].Operational
	})
	var frontier []Outcome
	best := math.Inf(1)
	for _, p := range sorted {
		if float64(p.Operational) < best {
			frontier = append(frontier, p)
			best = float64(p.Operational)
		}
	}
	return frontier
}

// CoverageFor evaluates the coverage of a pure renewable design (no battery
// or scheduling) at the given investments — the inner loop of the Figure 7
// surfaces.
func (in *Inputs) CoverageFor(windMW, solarMW float64) (float64, error) {
	return Coverage(in.Demand, in.RenewableSupply(windMW, solarMW))
}

// InvestmentForCoverage finds, by bisection, the minimal total renewable
// investment achieving the target coverage percentage when wind and solar
// are mixed in the given proportion (windFrac in [0, 1]). It returns the
// total MW and whether the target is achievable below maxTotalMW (solar-only
// mixes, for example, cannot exceed ~50–60% coverage no matter the
// investment).
func (in *Inputs) InvestmentForCoverage(targetPct, windFrac, maxTotalMW float64) (totalMW float64, ok bool, err error) {
	//carbonlint:allow ctxflow documented non-cancellable wrapper; callers with a ctx use InvestmentForCoverageContext
	return in.InvestmentForCoverageContext(context.Background(), targetPct, windFrac, maxTotalMW)
}

// InvestmentForCoverageContext is InvestmentForCoverage with cancellation:
// ctx is checked between bisection steps.
func (in *Inputs) InvestmentForCoverageContext(ctx context.Context, targetPct, windFrac, maxTotalMW float64) (totalMW float64, ok bool, err error) {
	if targetPct < 0 || targetPct > 100 {
		return 0, false, fmt.Errorf("explorer: target coverage %v out of [0, 100]", targetPct)
	}
	if windFrac < 0 || windFrac > 1 {
		return 0, false, fmt.Errorf("explorer: wind fraction %v out of [0, 1]", windFrac)
	}
	coverageAt := func(total float64) (float64, error) {
		return in.CoverageFor(total*windFrac, total*(1-windFrac))
	}
	hi, err := coverageAt(maxTotalMW)
	if err != nil {
		return 0, false, err
	}
	if hi < targetPct {
		return 0, false, nil
	}
	lo, hiMW := 0.0, maxTotalMW
	for i := 0; i < 60 && hiMW-lo > 1e-6*maxTotalMW; i++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		mid := (lo + hiMW) / 2
		c, err := coverageAt(mid)
		if err != nil {
			return 0, false, err
		}
		if c >= targetPct {
			hiMW = mid
		} else {
			lo = mid
		}
	}
	return hiMW, true, nil
}

// MinBatteryHoursFor247 finds, by bisection, the smallest battery (in hours
// of average compute) that achieves at least targetPct coverage for the
// given renewable investments, searching up to maxHours. It reports whether
// the target is achievable within the bound.
func (in *Inputs) MinBatteryHoursFor247(windMW, solarMW, targetPct, maxHours float64) (hours float64, ok bool, err error) {
	//carbonlint:allow ctxflow documented non-cancellable wrapper; callers with a ctx use MinBatteryHoursFor247Context
	return in.MinBatteryHoursFor247Context(context.Background(), windMW, solarMW, targetPct, maxHours)
}

// MinBatteryHoursFor247Context is MinBatteryHoursFor247 with cancellation:
// ctx is checked between bisection steps (each step simulates a full year).
func (in *Inputs) MinBatteryHoursFor247Context(ctx context.Context, windMW, solarMW, targetPct, maxHours float64) (hours float64, ok bool, err error) {
	avg := in.AvgDemandMW()
	covAt := func(h float64) (float64, error) {
		d := Design{WindMW: windMW, SolarMW: solarMW, BatteryMWh: h * avg, DoD: 1.0}
		if h == 0 {
			d.DoD = 0
		}
		o, err := in.Evaluate(d)
		if err != nil {
			return 0, err
		}
		return o.CoveragePct, nil
	}
	top, err := covAt(maxHours)
	if err != nil {
		return 0, false, err
	}
	if top < targetPct {
		return 0, false, nil
	}
	lo, hi := 0.0, maxHours
	for i := 0; i < 40 && hi-lo > 0.01; i++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		mid := (lo + hi) / 2
		c, err := covAt(mid)
		if err != nil {
			return 0, false, err
		}
		if c >= targetPct {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

// MinExtraCapacityFor247 finds, by bisection over extra server capacity,
// the smallest capacity addition (fraction of baseline peak) at which
// carbon-aware scheduling achieves at least targetPct coverage for the given
// renewables and flexible ratio, searching up to maxFrac. It reports whether
// the target is achievable within the bound.
func (in *Inputs) MinExtraCapacityFor247(windMW, solarMW, flexRatio, targetPct, maxFrac float64) (frac float64, ok bool, err error) {
	//carbonlint:allow ctxflow documented non-cancellable wrapper; callers with a ctx use MinExtraCapacityFor247Context
	return in.MinExtraCapacityFor247Context(context.Background(), windMW, solarMW, flexRatio, targetPct, maxFrac)
}

// MinExtraCapacityFor247Context is MinExtraCapacityFor247 with
// cancellation: ctx is checked between bisection steps.
func (in *Inputs) MinExtraCapacityFor247Context(ctx context.Context, windMW, solarMW, flexRatio, targetPct, maxFrac float64) (frac float64, ok bool, err error) {
	covAt := func(f float64) (float64, error) {
		o, err := in.Evaluate(Design{
			WindMW: windMW, SolarMW: solarMW,
			FlexibleRatio: flexRatio, ExtraCapacityFrac: f,
		})
		if err != nil {
			return 0, err
		}
		return o.CoveragePct, nil
	}
	top, err := covAt(maxFrac)
	if err != nil {
		return 0, false, err
	}
	if top < targetPct {
		return 0, false, nil
	}
	lo, hi := 0.0, maxFrac
	for i := 0; i < 40 && hi-lo > 0.005; i++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		mid := (lo + hi) / 2
		c, err := covAt(mid)
		if err != nil {
			return 0, false, err
		}
		if c >= targetPct {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}
