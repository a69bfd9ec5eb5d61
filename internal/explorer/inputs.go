package explorer

import (
	"fmt"

	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/dcload"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/timeseries"
)

// Inputs bundles everything needed to evaluate designs for one datacenter
// site: the site's demand trace, its grid's renewable generation shapes, and
// the grid's hourly carbon intensity. Build it once per site and reuse it
// across many Evaluate calls.
type Inputs struct {
	// Site is the datacenter location under study.
	Site grid.Site
	// Demand is the datacenter's hourly power in MW.
	Demand timeseries.Series
	// WindShape and SolarShape are the local grid's hourly wind and solar
	// generation in MW. Investments are projected by linearly rescaling
	// these shapes so their annual maximum equals the invested capacity
	// (Section 4.1).
	WindShape  timeseries.Series
	SolarShape timeseries.Series
	// GridCI is the local grid's hourly carbon intensity in gCO2/kWh,
	// used to price energy drawn from the grid.
	GridCI timeseries.Series
	// Embodied holds the manufacturing-footprint assumptions.
	Embodied carbon.EmbodiedParams

	// EvalHook, when non-nil, runs before every design evaluation inside a
	// search sweep. A non-nil error (or a panic) fails that design alone —
	// the sweep's panic containment applies. It does not run for a design
	// whose twin (see Twins) is already done, or evaluated successfully in
	// the same EvaluateAll slice (a search, a sweep batch), or whose year a
	// sweep's per-run memo holds (another lease of a coordinated sweep, an
	// earlier adaptive round): that design takes its twin's outcome without
	// being simulated, though reports still count it as evaluated. It
	// exists for fault injection in chaos tests and for canary checks in
	// long-running services; leave it nil in normal operation.
	EvalHook func(Design) error

	// demandTotalMWh caches Demand.Sum().
	demandTotalMWh float64
	// peakDemandMW caches Demand.MaxValue(), the baseline provisioned
	// capacity against which extra servers are measured.
	peakDemandMW float64
	// windShapeMaxMW and solarShapeMaxMW cache the shapes' annual maxima —
	// the denominators of the paper's linear-scaling rule — so the hot path
	// does not rescan 8760 samples per design. shapeMaxCached guards the
	// cache for Inputs values built without a constructor (package tests).
	windShapeMaxMW  float64
	solarShapeMaxMW float64
	shapeMaxCached  bool
}

// Option customizes NewInputs.
type Option func(*options)

type options struct {
	demandParams *dcload.Params
	embodied     *carbon.EmbodiedParams
	repair       *timeseries.RepairPolicy
}

// WithDemandParams overrides the default demand model.
func WithDemandParams(p dcload.Params) Option {
	return func(o *options) { o.demandParams = &p }
}

// WithEmbodiedParams overrides the default embodied-carbon assumptions.
func WithEmbodiedParams(p carbon.EmbodiedParams) Option {
	return func(o *options) { o.embodied = &p }
}

// WithSeriesRepair makes NewInputsFromSeries tolerant of damaged data:
// instead of rejecting series containing NaN, infinite, or negative
// samples, it repairs them under the given policy (interpolating short gaps,
// clamping negative noise) and only errors when a gap exceeds the policy's
// bound. Without this option all series must already be clean.
func WithSeriesRepair(p timeseries.RepairPolicy) Option {
	return func(o *options) { o.repair = &p }
}

// NewInputs assembles evaluation inputs for a site: it simulates the site's
// balancing-authority grid year and the site's demand trace.
func NewInputs(site grid.Site, opts ...Option) (*Inputs, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	profile, err := grid.Profile(site.BA)
	if err != nil {
		return nil, err
	}
	year := grid.GenerateYear(profile)

	dp := dcload.DefaultParams(site.AvgPowerMW)
	if o.demandParams != nil {
		dp = *o.demandParams
	}
	trace, err := dcload.Generate(dp, timeseries.HoursPerYear)
	if err != nil {
		return nil, err
	}

	emb := carbon.DefaultEmbodiedParams()
	if o.embodied != nil {
		emb = *o.embodied
	}
	if err := emb.Validate(); err != nil {
		return nil, err
	}

	in := &Inputs{
		Site:       site,
		Demand:     trace.Power,
		WindShape:  year.WindShape(),
		SolarShape: year.SolarShape(),
		GridCI:     year.CarbonIntensity(),
		Embodied:   emb,
	}
	in.finish()
	return in, nil
}

// NewInputsFromSeries assembles inputs from caller-provided series, for
// users substituting real EIA and datacenter data. All series must have
// equal, non-zero length, and every sample must be finite and non-negative —
// a single NaN would otherwise silently poison every downstream carbon
// total. Pass WithSeriesRepair to accept and repair damaged data instead.
func NewInputsFromSeries(site grid.Site, demand, windShape, solarShape, gridCI timeseries.Series, emb carbon.EmbodiedParams, opts ...Option) (*Inputs, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	n := demand.Len()
	if n == 0 {
		return nil, fmt.Errorf("explorer: empty demand series")
	}
	named := []struct {
		name string
		s    timeseries.Series
	}{
		{"demand", demand},
		{"wind", windShape},
		{"solar", solarShape},
		{"grid CI", gridCI},
	}
	cleaned := make([]timeseries.Series, len(named))
	for i, ns := range named {
		if err := ns.s.CheckLength(n); err != nil {
			return nil, fmt.Errorf("explorer: %s series vs demand: %w", ns.name, err)
		}
		if o.repair != nil {
			repaired, _, err := ns.s.Repair(*o.repair)
			if err != nil {
				return nil, fmt.Errorf("explorer: repairing %s series: %w", ns.name, err)
			}
			cleaned[i] = repaired
			continue
		}
		if err := ns.s.Validate(); err != nil {
			return nil, fmt.Errorf("explorer: %s series: %w", ns.name, err)
		}
		cleaned[i] = ns.s.Clone()
	}
	if err := emb.Validate(); err != nil {
		return nil, err
	}
	in := &Inputs{
		Site:       site,
		Demand:     cleaned[0],
		WindShape:  cleaned[1],
		SolarShape: cleaned[2],
		GridCI:     cleaned[3],
		Embodied:   emb,
	}
	in.finish()
	return in, nil
}

func (in *Inputs) finish() {
	in.demandTotalMWh = in.Demand.Sum()
	in.peakDemandMW = in.Demand.MaxValue()
	in.windShapeMaxMW = in.WindShape.MaxValue()
	in.solarShapeMaxMW = in.SolarShape.MaxValue()
	in.shapeMaxCached = true
}

// windShapeMax and solarShapeMax return the cached shape maxima, falling
// back to a scan for Inputs built without a constructor.
func (in *Inputs) windShapeMax() float64 {
	if in.shapeMaxCached {
		return in.windShapeMaxMW
	}
	return in.WindShape.MaxValue()
}

func (in *Inputs) solarShapeMax() float64 {
	if in.shapeMaxCached {
		return in.solarShapeMaxMW
	}
	return in.SolarShape.MaxValue()
}

// PeakDemandMW returns the baseline peak demand — the site's existing
// provisioned capacity.
func (in *Inputs) PeakDemandMW() float64 { return in.peakDemandMW }

// AvgDemandMW returns the mean demand.
func (in *Inputs) AvgDemandMW() float64 { return in.demandTotalMWh / float64(in.Demand.Len()) }

// RenewableSupply projects hourly renewable supply for the given wind and
// solar investments using the paper's linear-scaling rule. A zero investment
// contributes nothing; a region with no generation of a type (e.g. wind in
// North Carolina) contributes nothing regardless of investment.
//
// The result is built in one buffer (no intermediate wind/solar series) and
// is bit-identical to scaling each shape separately and adding them: zero
// investments add exactly nothing, and x·1 and 0+x are exact in IEEE 754.
func (in *Inputs) RenewableSupply(windMW, solarMW float64) timeseries.Series {
	buf := make([]float64, in.Demand.Len())
	in.addSupplyInto(buf, windMW, solarMW)
	return timeseries.Adopt(buf)
}

// addSupplyInto accumulates the scaled wind and solar shapes into buf and
// returns each source's generated energy (the ScaleToMax(...).Sum() of the
// reference path, computed during the same pass). It is the single kernel
// behind RenewableSupply and the Evaluator's memoized supply.
func (in *Inputs) addSupplyInto(buf []float64, windMW, solarMW float64) (windGenMWh, solarGenMWh float64) {
	if windMW > 0 {
		windGenMWh = in.WindShape.ScaleAddInto(buf, scaleToMaxFactor(in.windShapeMax(), windMW))
	}
	if solarMW > 0 {
		solarGenMWh = in.SolarShape.ScaleAddInto(buf, scaleToMaxFactor(in.solarShapeMax(), solarMW))
	}
	return windGenMWh, solarGenMWh
}

// scaleToMaxFactor is ScaleToMax as a scalar: a series with no positive
// samples is used unchanged (factor 1, exact in IEEE 754), otherwise it is
// rescaled so its maximum equals max.
func scaleToMaxFactor(cur, max float64) float64 {
	if cur <= 0 {
		return 1
	}
	return max / cur
}
