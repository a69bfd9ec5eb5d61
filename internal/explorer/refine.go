package explorer

import (
	"context"
	"fmt"
	"math"
)

// The exhaustive Search scales as the product of the dimension grids, so
// practical grids are coarse and can miss the optimum between grid points.
// RefineSearch wraps Search with iterative zoom: after each pass it builds a
// finer grid bracketing the incumbent optimum in every dimension and
// searches again, converging toward the continuous optimum at a fraction of
// a fine uniform grid's cost.

// RefineOptions controls the zoom search.
type RefineOptions struct {
	// Rounds is the number of zoom iterations after the initial coarse
	// pass (default 3).
	Rounds int
	// PointsPerDim is the grid size per dimension in each zoom round
	// (default 5).
	PointsPerDim int
	// Shrink is the factor by which each round narrows the bracket around
	// the incumbent (default 0.35).
	Shrink float64
}

func (o RefineOptions) withDefaults() (RefineOptions, error) {
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	switch {
	case o.PointsPerDim == 0:
		o.PointsPerDim = 5
	case o.PointsPerDim < 3:
		// A zoom grid needs a point on each side of the incumbent plus the
		// incumbent itself; silently promoting a nonsensical request used
		// to hide caller bugs, so reject it instead.
		return RefineOptions{}, fmt.Errorf("explorer: RefineOptions.PointsPerDim %d invalid: need 0 (default) or at least 3", o.PointsPerDim)
	}
	if o.Shrink <= 0 || o.Shrink >= 1 {
		o.Shrink = 0.35
	}
	return o, nil
}

// RefineResult is the outcome of a zoom search.
type RefineResult struct {
	// Optimal is the best design found.
	Optimal Outcome
	// Evaluations is the total number of designs evaluated.
	Evaluations int
	// Rounds records the incumbent total (grams CO2) after each round,
	// starting with the coarse pass — useful for convergence reporting.
	Rounds []float64
}

// RefineSearch runs the coarse Search, then iteratively zooms the grid
// around the incumbent optimum. The strategy restricts which dimensions may
// move, exactly as in Search.
func (in *Inputs) RefineSearch(space Space, strategy Strategy, opts RefineOptions) (RefineResult, error) {
	//carbonlint:allow ctxflow documented non-cancellable wrapper; callers with a ctx use RefineSearchContext
	return in.RefineSearchContext(context.Background(), space, strategy, opts)
}

// RefineSearchContext is RefineSearch with cancellation: ctx is honoured by
// every underlying sweep, so a zoom search interrupted mid-round returns
// promptly with ctx's error rather than finishing all remaining rounds.
func (in *Inputs) RefineSearchContext(ctx context.Context, space Space, strategy Strategy, opts RefineOptions) (RefineResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return RefineResult{}, err
	}

	res, err := in.SearchContext(ctx, space, strategy)
	if err != nil {
		return RefineResult{}, err
	}
	out := RefineResult{
		Optimal:     res.Optimal,
		Evaluations: len(res.Points),
		Rounds:      []float64{float64(res.Optimal.Total())},
	}

	// Bracket half-widths start at the coarse grid's spacing.
	windHW := spacing(space.WindMW)
	solarHW := spacing(space.SolarMW)
	batteryHW := spacing(space.BatteryHours) * in.AvgDemandMW()
	extraHW := spacing(space.ExtraCapacityFracs)

	avg := in.AvgDemandMW()
	for round := 0; round < opts.Rounds; round++ {
		best := out.Optimal.Design
		zoom := Space{
			WindMW:             bracket(best.WindMW, windHW, opts.PointsPerDim),
			SolarMW:            bracket(best.SolarMW, solarHW, opts.PointsPerDim),
			BatteryHours:       scaleDown(bracket(best.BatteryMWh, batteryHW, opts.PointsPerDim), avg),
			ExtraCapacityFracs: bracket(best.ExtraCapacityFrac, extraHW, opts.PointsPerDim),
			DoD:                space.DoD,
			FlexibleRatio:      space.FlexibleRatio,
		}
		res, err := in.SearchContext(ctx, zoom, strategy)
		if err != nil {
			return RefineResult{}, err
		}
		out.Evaluations += len(res.Points)
		if Better(res.Optimal, out.Optimal) {
			out.Optimal = res.Optimal
		}
		out.Rounds = append(out.Rounds, float64(out.Optimal.Total()))

		windHW *= opts.Shrink
		solarHW *= opts.Shrink
		batteryHW *= opts.Shrink
		extraHW *= opts.Shrink
	}
	return out, nil
}

// spacing returns a representative spacing of a sorted-or-not grid: the
// range divided by the interval count, or 0 for degenerate grids (which
// pins the dimension).
func spacing(grid []float64) float64 {
	if len(grid) < 2 {
		return 0
	}
	lo, hi := grid[0], grid[0]
	for _, v := range grid[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return 0
	}
	return (hi - lo) / float64(len(grid)-1)
}

// bracket builds a grid of n points spanning [center−hw, center+hw],
// clamped at zero. A zero half-width pins the dimension to its center.
func bracket(center, hw float64, n int) []float64 {
	if hw <= 0 {
		return []float64{center}
	}
	lo := center - hw
	if lo < 0 {
		lo = 0
	}
	hi := center + hw
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := lo + (hi-lo)*float64(i)/float64(n-1)
		out = append(out, v)
	}
	return dedupeFloats(out)
}

func scaleDown(vals []float64, by float64) []float64 {
	if by <= 0 {
		return []float64{0}
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v / by
	}
	return out
}

func dedupeFloats(vals []float64) []float64 {
	out := vals[:0]
	for _, v := range vals {
		dup := false
		for _, u := range out {
			if math.Abs(u-v) < 1e-12 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// CoordinateDescent optimizes one dimension at a time by golden-section
// search over a continuous interval, holding the others fixed — an
// alternative to grid refinement that suits smooth objectives. It starts
// from the given design and cycles through the strategy's free dimensions
// until a full cycle improves the total by less than tol (relative) or
// maxCycles is reached.
func (in *Inputs) CoordinateDescent(start Design, strategy Strategy, maxTotalMW float64, maxCycles int, tol float64) (RefineResult, error) {
	if maxCycles <= 0 {
		maxCycles = 4
	}
	if tol <= 0 {
		tol = 1e-3
	}
	if maxTotalMW <= 0 {
		return RefineResult{}, fmt.Errorf("explorer: coordinate descent needs a positive investment bound")
	}

	cur := start
	if !strategy.UsesBattery() {
		cur.BatteryMWh, cur.DoD = 0, 0
	}
	if !strategy.UsesCAS() {
		cur.FlexibleRatio, cur.ExtraCapacityFrac = 0, 0
	}
	best, err := in.Evaluate(cur)
	if err != nil {
		return RefineResult{}, err
	}
	out := RefineResult{Optimal: best, Evaluations: 1, Rounds: []float64{float64(best.Total())}}

	type dim struct {
		get func(Design) float64
		set func(*Design, float64)
		hi  float64
		on  bool
	}
	avg := in.AvgDemandMW()
	dims := []dim{
		{func(d Design) float64 { return d.WindMW }, func(d *Design, v float64) { d.WindMW = v }, maxTotalMW, true},
		{func(d Design) float64 { return d.SolarMW }, func(d *Design, v float64) { d.SolarMW = v }, maxTotalMW, true},
		{func(d Design) float64 { return d.BatteryMWh }, func(d *Design, v float64) {
			d.BatteryMWh = v
			if v > 0 && d.DoD == 0 {
				d.DoD = 1
			}
			if v == 0 {
				d.DoD = 0
			}
		}, 24 * avg, strategy.UsesBattery()},
		{func(d Design) float64 { return d.ExtraCapacityFrac }, func(d *Design, v float64) { d.ExtraCapacityFrac = v }, 2, strategy.UsesCAS()},
	}

	for cycle := 0; cycle < maxCycles; cycle++ {
		startTotal := float64(out.Optimal.Total())
		for _, dm := range dims {
			if !dm.on {
				continue
			}
			lo, hi := 0.0, dm.hi
			// Golden-section search on this dimension.
			const phi = 0.6180339887498949
			a, b := lo, hi
			x1 := b - phi*(b-a)
			x2 := a + phi*(b-a)
			f := func(v float64) (Outcome, error) {
				d := out.Optimal.Design
				dm.set(&d, v)
				o, err := in.Evaluate(d)
				out.Evaluations++
				return o, err
			}
			o1, err := f(x1)
			if err != nil {
				return RefineResult{}, err
			}
			o2, err := f(x2)
			if err != nil {
				return RefineResult{}, err
			}
			for i := 0; i < 18 && b-a > 1e-3*(dm.hi+1); i++ {
				if o1.Total() <= o2.Total() {
					b, x2, o2 = x2, x1, o1
					x1 = b - phi*(b-a)
					o1, err = f(x1)
				} else {
					a, x1, o1 = x1, x2, o2
					x2 = a + phi*(b-a)
					o2, err = f(x2)
				}
				if err != nil {
					return RefineResult{}, err
				}
			}
			cand := o1
			if o2.Total() < o1.Total() {
				cand = o2
			}
			if Better(cand, out.Optimal) {
				out.Optimal = cand
			}
		}
		out.Rounds = append(out.Rounds, float64(out.Optimal.Total()))
		if startTotal > 0 && (startTotal-float64(out.Optimal.Total()))/startTotal < tol {
			break
		}
	}
	return out, nil
}
