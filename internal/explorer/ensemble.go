package explorer

import (
	"context"
	"fmt"
	"sort"

	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/dcload"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/timeseries"
)

// The paper evaluates on one year of data (2020). An ensemble evaluation
// asks how a design performs across many plausible weather years of the
// same climate — the design-under-uncertainty view.

// EnsembleResult summarizes a design's performance distribution across
// weather years.
type EnsembleResult struct {
	// Outcomes are the per-year evaluations, base year first.
	Outcomes []Outcome
	// CoverageP10, CoverageP50, CoverageP90 are coverage percentiles
	// across years (P10 = a bad year).
	CoverageP10, CoverageP50, CoverageP90 float64
	// TotalP10, TotalP50, TotalP90 are total-carbon percentiles in
	// kilotonnes (P90 = a bad year).
	TotalP10, TotalP50, TotalP90 float64
}

// EnsembleEvaluate evaluates the design for a site across `years` weather
// realizations (the site's base seed plus years−1 perturbed seeds) and
// returns the outcome distribution. years must be at least 2.
func EnsembleEvaluate(site grid.Site, d Design, years int) (EnsembleResult, error) {
	//carbonlint:allow ctxflow documented non-cancellable wrapper; callers with a ctx use EnsembleEvaluateContext
	return EnsembleEvaluateContext(context.Background(), site, d, years)
}

// EnsembleEvaluateContext is EnsembleEvaluate with cancellation: ctx is
// checked between weather years (each year simulates 8760 hours).
func EnsembleEvaluateContext(ctx context.Context, site grid.Site, d Design, years int) (EnsembleResult, error) {
	if years < 2 {
		return EnsembleResult{}, fmt.Errorf("explorer: ensemble needs at least 2 years")
	}
	if err := d.Validate(); err != nil {
		return EnsembleResult{}, err
	}
	var res EnsembleResult
	var coverages, totals []float64
	for y := 0; y < years; y++ {
		if err := ctx.Err(); err != nil {
			return EnsembleResult{}, err
		}
		in, err := ensembleInputs(site, uint64(y))
		if err != nil {
			return EnsembleResult{}, err
		}
		// EvaluateSafe contains panics to the offending year: an ensemble
		// is often run unattended over many sites, and one hostile weather
		// realization should surface as an error, not kill the process.
		o, err := in.NewEvaluator().EvaluateSafe(d)
		if err != nil {
			return EnsembleResult{}, fmt.Errorf("explorer: ensemble year %d: %w", y, err)
		}
		res.Outcomes = append(res.Outcomes, o)
		coverages = append(coverages, o.CoveragePct)
		totals = append(totals, o.Total().Kilotonnes())
	}
	res.CoverageP10 = percentile(coverages, 10)
	res.CoverageP50 = percentile(coverages, 50)
	res.CoverageP90 = percentile(coverages, 90)
	res.TotalP10 = percentile(totals, 10)
	res.TotalP50 = percentile(totals, 50)
	res.TotalP90 = percentile(totals, 90)
	return res, nil
}

// ensembleInputs builds inputs for weather-year y (0 = the base year).
func ensembleInputs(site grid.Site, y uint64) (*Inputs, error) {
	profile, err := grid.Profile(site.BA)
	if err != nil {
		return nil, err
	}
	if y > 0 {
		profile.Seed += 1000 * y
		profile.Wind.Seed = profile.Seed*7919 + 1
		profile.Solar.Seed = profile.Seed*7919 + 2
	}
	year := grid.GenerateYear(profile)
	dp := dcload.DefaultParams(site.AvgPowerMW)
	dp.Seed += y
	trace, err := dcload.Generate(dp, timeseries.HoursPerYear)
	if err != nil {
		return nil, err
	}
	return NewInputsFromSeries(site, trace.Power,
		year.WindShape(), year.SolarShape(), year.CarbonIntensity(),
		carbon.DefaultEmbodiedParams())
}

// percentile is a small local order-statistic helper (linear
// interpolation), avoiding a dependency on internal/stats from the core
// package.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
