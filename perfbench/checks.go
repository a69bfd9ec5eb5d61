package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"carbonexplorer/internal/battery"
	"carbonexplorer/internal/cost"
	"carbonexplorer/internal/experiments"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/scheduler"
	"carbonexplorer/internal/sweep"
	"carbonexplorer/internal/timeseries"
)

// The output checks recompute every answer the benchmark reads from the
// program through an independent path: the reference evaluator
// (explorer.Inputs.Evaluate), the reference scheduler (scheduler.Simulate),
// brute force, or a linear scan. Each takes plain values so the tests can
// feed it a corrupted copy and see it fail.

// argminSamples is how many designs of each Figure 15 search space are
// re-evaluated against the reported optimum.
const argminSamples = 6

// sweepSamples is how many designs of each exhaustively swept space are
// re-evaluated against the published checkpoint (a fifth of the 1,470).
const sweepSamples = 294

// sameBits reports exact float equality, the contract between the engine's
// deterministic fold and everything that re-reads its results.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// relClose reports |a-b| ≤ tol·max(|a|, |b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func total(o explorer.Outcome) float64 { return float64(o.Total()) }

// dominates reports whether a is at least as good as b on both carbon axes
// and strictly better on one.
func dominates(a, b explorer.Outcome) bool {
	ao, ae, bo, be := float64(a.Operational), float64(a.Embodied), float64(b.Operational), float64(b.Embodied)
	return ao <= bo && ae <= be && (ao < bo || ae < be)
}

// weaklyDominated reports whether some frontier point is at least as good
// as o on both carbon axes.
func weaklyDominated(o explorer.Outcome, frontier []explorer.Outcome) bool {
	for _, f := range frontier {
		if float64(f.Operational) <= float64(o.Operational) && float64(f.Embodied) <= float64(o.Embodied) {
			return true
		}
	}
	return false
}

// checkNonDominated fails when some frontier point dominates another.
func checkNonDominated(frontier []explorer.Outcome) error {
	for i, a := range frontier {
		for j, b := range frontier {
			if i != j && dominates(a, b) {
				return fmt.Errorf("frontier point %d dominates point %d", i, j)
			}
		}
	}
	return nil
}

// minTotal is the least total carbon of points (+Inf for none).
func minTotal(points []explorer.Outcome) float64 {
	m := math.Inf(1)
	for _, p := range points {
		m = math.Min(m, total(p))
	}
	return m
}

// checkNesting verifies Figure 15's strategy nesting per site: adding a
// battery can only lower the optimum, because each battery space contains
// the battery-free one.
func checkNesting(rows []experiments.Figure15Row) error {
	opt := map[string]map[explorer.Strategy]float64{}
	for _, r := range rows {
		if opt[r.SiteID] == nil {
			opt[r.SiteID] = map[explorer.Strategy]float64{}
		}
		opt[r.SiteID][r.Strategy] = total(r.Optimal)
	}
	for site, o := range opt {
		if len(o) != 4 {
			return fmt.Errorf("site %s: %d strategies, want 4", site, len(o))
		}
		if o[explorer.RenewablesBattery] > o[explorer.RenewablesOnly] {
			return fmt.Errorf("site %s: Renewables+Battery optimum %.6g g above Renewables-only %.6g g", site, o[explorer.RenewablesBattery], o[explorer.RenewablesOnly])
		}
		if o[explorer.RenewablesBatteryCAS] > o[explorer.RenewablesCAS] {
			return fmt.Errorf("site %s: Renewables+Battery+CAS optimum %.6g g above Renewables+CAS %.6g g", site, o[explorer.RenewablesBatteryCAS], o[explorer.RenewablesCAS])
		}
	}
	return nil
}

// checkResimulated re-simulates an optimum through the reference scheduler
// with a renewable supply built here from the paper's linear-scaling rule,
// then checks its operational carbon and energy balance to 1e-9 relative.
func checkResimulated(in *explorer.Inputs, o explorer.Outcome) error {
	d := o.Design
	n := in.Demand.Len()
	supply := make([]float64, n)
	for _, src := range []struct {
		mw    float64
		shape func(int) float64
		max   float64
	}{
		{d.WindMW, in.WindShape.At, in.WindShape.MaxValue()},
		{d.SolarMW, in.SolarShape.At, in.SolarShape.MaxValue()},
	} {
		if src.mw <= 0 {
			continue
		}
		k := 1.0
		if src.max > 0 {
			k = src.mw / src.max
		}
		for h := range supply {
			supply[h] += src.shape(h) * k
		}
	}
	var bat *battery.Battery
	if d.BatteryMWh > 0 {
		var err error
		if bat, err = battery.New(d.BatteryTech.Spec().Params(d.BatteryMWh, d.DoD)); err != nil {
			return fmt.Errorf("battery for %+v: %w", d, err)
		}
	}
	capMW := 0.0
	if d.FlexibleRatio > 0 {
		capMW = in.PeakDemandMW() * (1 + d.ExtraCapacityFrac)
	}
	res, err := scheduler.Simulate(scheduler.SimConfig{
		Demand: in.Demand, Renewable: timeseries.FromValues(supply), Battery: bat,
		FlexibleRatio: d.FlexibleRatio, CapacityMW: capMW, DeferralWindowHours: 24,
	})
	if err != nil {
		return fmt.Errorf("re-simulating %+v: %w", d, err)
	}
	var op, balanced, demand float64
	for h := 0; h < n; h++ {
		if g := res.GridDraw.At(h); g > 0 {
			op += g * 1000 * in.GridCI.At(h) // MWh × gCO2/kWh
		}
		balanced += res.Balanced.At(h)
		demand += in.Demand.At(h)
	}
	switch {
	case !relClose(op, float64(o.Operational), 1e-9):
		return fmt.Errorf("%s optimum %+v: operational %.9g g, re-simulated %.9g g", in.Site.ID, d, float64(o.Operational), op)
	case !relClose(balanced, demand, 1e-9):
		return fmt.Errorf("%s optimum %+v: balanced load %.9g MWh, demand %.9g MWh", in.Site.ID, d, balanced, demand)
	case o.CoveragePct < 0 || o.CoveragePct > 100 || math.IsNaN(o.CoveragePct):
		return fmt.Errorf("%s optimum %+v: coverage %v outside [0, 100]", in.Site.ID, d, o.CoveragePct)
	}
	return nil
}

// section5Space is the grid Section 5 of the paper searches for Figures 14
// and 15 (experiments' searchSpace at 100% depth of discharge): renewables
// at 0–14× average demand, batteries of 0–14 compute-hours, extra capacity
// up to 100%, 40% flexible work.
func section5Space(in *explorer.Inputs) explorer.Space {
	avg := in.AvgDemandMW()
	mult := []float64{0, 1, 2, 4, 8, 14}
	mw := make([]float64, len(mult))
	for i, m := range mult {
		mw[i] = m * avg
	}
	return explorer.Space{
		WindMW: mw, SolarMW: mw,
		BatteryHours:       []float64{0, 2, 4, 8, 14},
		ExtraCapacityFracs: []float64{0, 0.25, 0.5, 1.0},
		DoD:                1.0,
		FlexibleRatio:      0.40,
	}
}

// checkArgminSample evaluates a seeded sample of the optimum's search space
// through the reference evaluator: none may beat the reported optimum.
func checkArgminSample(in *explorer.Inputs, designs []explorer.Design, opt explorer.Outcome, rng *rand.Rand, k int) error {
	for i := 0; i < k; i++ {
		d := designs[rng.Intn(len(designs))]
		o, err := in.Evaluate(d)
		if err != nil {
			return fmt.Errorf("evaluating sampled %+v: %w", d, err)
		}
		if total(o) < total(opt) {
			return fmt.Errorf("%s: sampled %+v totals %.9g g, below the reported optimum %.9g g", in.Site.ID, d, total(o), total(opt))
		}
	}
	return nil
}

// checkFigure14 verifies each Figure 14 frontier is mutually non-dominated
// and that its least total equals the least of the site's four Figure 15
// optima (both are taken over the same Section 5 grid).
func checkFigure14(frontiers map[string][]explorer.Outcome, rows []experiments.Figure15Row) error {
	best := map[string]float64{}
	for _, r := range rows {
		if v, ok := best[r.SiteID]; !ok || total(r.Optimal) < v {
			best[r.SiteID] = total(r.Optimal)
		}
	}
	for _, site := range fig14Sites {
		f := frontiers[site]
		if len(f) == 0 {
			return fmt.Errorf("figure 14: no frontier for %s", site)
		}
		if err := checkNonDominated(f); err != nil {
			return fmt.Errorf("figure 14 %s: %w", site, err)
		}
		if b, ok := best[site]; ok && !sameBits(minTotal(f), b) {
			return fmt.Errorf("figure 14 %s: frontier minimum %.9g g, figure 15 optimum %.9g g", site, minTotal(f), b)
		}
	}
	return nil
}

// checkPublished verifies one published checkpoint against its sweep's
// result: the frontier is non-dominated, the optimum is its least total and
// agrees with the in-memory result.
func checkPublished(ck *sweep.Checkpoint, res sweep.Result) error {
	if ck.Best == nil {
		return fmt.Errorf("%s: no optimum", ck.Site)
	}
	if err := checkNonDominated(ck.Frontier); err != nil {
		return fmt.Errorf("%s: %w", ck.Site, err)
	}
	if !sameBits(total(*ck.Best), minTotal(ck.Frontier)) {
		return fmt.Errorf("%s: optimum %.9g g, frontier minimum %.9g g", ck.Site, total(*ck.Best), minTotal(ck.Frontier))
	}
	if !sameBits(total(*ck.Best), total(res.Optimal)) {
		return fmt.Errorf("%s: published optimum %.9g g, sweep result %.9g g", ck.Site, total(*ck.Best), total(res.Optimal))
	}
	return nil
}

// checkReevaluated re-evaluates every frontier point through the reference
// evaluator: each must reproduce its carbon figures exactly.
func checkReevaluated(in *explorer.Inputs, frontier []explorer.Outcome) error {
	for _, f := range frontier {
		o, err := in.Evaluate(f.Design)
		if err != nil {
			return fmt.Errorf("re-evaluating %+v: %w", f.Design, err)
		}
		if !sameBits(float64(o.Operational), float64(f.Operational)) || !sameBits(float64(o.Embodied), float64(f.Embodied)) {
			return fmt.Errorf("%s frontier point %+v: published %.9g/%.9g g, re-evaluated %.9g/%.9g g",
				in.Site.ID, f.Design, float64(f.Operational), float64(f.Embodied), float64(o.Operational), float64(o.Embodied))
		}
	}
	return nil
}

// coarseLattice enumerates the adaptive plan's round-0 lattice from the
// space bounds: coarse evenly spaced points along each axis the strategy
// leaves free (wind, solar, battery MWh, extra capacity).
func coarseLattice(in *explorer.Inputs, space explorer.Space, coarse int) []explorer.Design {
	avg := in.AvgDemandMW()
	bounds := func(vs []float64, k float64) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range vs {
			lo, hi = math.Min(lo, v*k), math.Max(hi, v*k)
		}
		return lo, hi
	}
	var axes [4][]float64
	for a, vs := range [4][]float64{space.WindMW, space.SolarMW, space.BatteryHours, space.ExtraCapacityFracs} {
		k := 1.0
		if a == 2 {
			k = avg
		}
		lo, hi := bounds(vs, k)
		if hi <= lo {
			axes[a] = []float64{lo}
			continue
		}
		for i := 0; i < coarse; i++ {
			axes[a] = append(axes[a], lo+(hi-lo)*float64(i)/float64(coarse-1))
		}
	}
	var out []explorer.Design
	for _, w := range axes[0] {
		for _, s := range axes[1] {
			for _, b := range axes[2] {
				for _, e := range axes[3] {
					d := explorer.Design{WindMW: w, SolarMW: s, BatteryMWh: b, DoD: space.DoD, FlexibleRatio: space.FlexibleRatio, ExtraCapacityFrac: e}
					if b == 0 {
						d.DoD = 0
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// checkLatticeDominated evaluates every lattice design through the
// reference evaluator: the published frontier must weakly dominate each.
func checkLatticeDominated(in *explorer.Inputs, lattice []explorer.Design, frontier []explorer.Outcome) error {
	for _, d := range lattice {
		o, err := in.Evaluate(d)
		if err != nil {
			return fmt.Errorf("evaluating lattice design %+v: %w", d, err)
		}
		if !weaklyDominated(o, frontier) {
			return fmt.Errorf("%s: lattice design %+v (%.9g/%.9g g) is not dominated by the frontier", in.Site.ID, d, float64(o.Operational), float64(o.Embodied))
		}
	}
	return nil
}

// checkComplete verifies a published exhaustive checkpoint covers every
// design of its space.
func checkComplete(ck *sweep.Checkpoint, designs int) error {
	if !ck.Complete() || ck.Designs != designs || ck.Done != designs {
		return fmt.Errorf("%s: checkpoint has %d of %d designs done (%d pending, %d failed once, %d failed), want all %d",
			ck.Site, ck.Done, ck.Designs, ck.Pending, ck.FailedOnce, ck.FailedPerm, designs)
	}
	return nil
}

// checkSampled evaluates k designs of the swept space, drawn without
// replacement, through the reference evaluator: none may total below the
// published optimum, and the published frontier must weakly dominate each.
func checkSampled(in *explorer.Inputs, designs []explorer.Design, frontier []explorer.Outcome, best explorer.Outcome, rng *rand.Rand, k int) error {
	for n, i := range rng.Perm(len(designs)) {
		if n == k {
			break
		}
		o, err := in.Evaluate(designs[i])
		if err != nil {
			return fmt.Errorf("evaluating sampled %+v: %w", designs[i], err)
		}
		if total(o) < total(best) {
			return fmt.Errorf("%s: sampled %+v totals %.9g g, below the published optimum %.9g g", in.Site.ID, designs[i], total(o), total(best))
		}
		if !weaklyDominated(o, frontier) {
			return fmt.Errorf("%s: sampled %+v (%.9g/%.9g g) is not dominated by the published frontier", in.Site.ID, designs[i], float64(o.Operational), float64(o.Embodied))
		}
	}
	return nil
}

// pricedPoint is one frontier point as the serving layer should answer it.
type pricedPoint struct {
	o    explorer.Outcome
	cost float64
}

// pricedSweep is one published checkpoint's frontier, read with
// sweep.ReadCheckpoint and priced with cost.DesignCapex.
type pricedSweep struct {
	hash, site string
	points     []pricedPoint
}

func priceSweep(ck *sweep.Checkpoint, peakMW float64) (pricedSweep, error) {
	ps := pricedSweep{hash: ck.SpaceHash, site: ck.Site}
	for _, o := range ck.Frontier {
		b, err := cost.Default().DesignCapex(o.Design, peakMW)
		if err != nil {
			return pricedSweep{}, fmt.Errorf("pricing %+v: %w", o.Design, err)
		}
		ps.points = append(ps.points, pricedPoint{o: o, cost: b.Total()})
	}
	return ps, nil
}

// scanOptimum is the linear-scan answer to an optimum query: the least
// total carbon among points within the constraints (NaN = none), ties to
// higher coverage.
func scanOptimum(ps pricedSweep, maxUSD, minCov float64) (pricedPoint, bool) {
	best, ok := pricedPoint{}, false
	for _, p := range ps.points {
		if (!math.IsNaN(maxUSD) && p.cost > maxUSD) || (!math.IsNaN(minCov) && p.o.CoveragePct < minCov) {
			continue
		}
		if !ok || total(p.o) < total(best.o) || (sameBits(total(p.o), total(best.o)) && p.o.CoveragePct > best.o.CoveragePct) {
			best, ok = p, true
		}
	}
	return best, ok
}

// wirePoint, wireOptimum, wireFrontier and wireCompare decode the serving
// layer's answers (docs/SERVING.md).
type wirePoint struct {
	Design       explorer.Design `json:"design"`
	CoveragePct  float64         `json:"coverage_pct"`
	OperationalG float64         `json:"operational_g"`
	EmbodiedG    float64         `json:"embodied_g"`
	TotalG       float64         `json:"total_g"`
	CostUSD      float64         `json:"cost_usd"`
}

// wireQuery is the constraint echo; absent fields were unconstrained.
type wireQuery struct {
	MaxCostUSD     *float64 `json:"max_cost_usd"`
	MinCoveragePct *float64 `json:"min_coverage_pct"`
}

// echoes reports whether the echo names exactly the query's constraints.
func (w wireQuery) echoes(q query) bool {
	same := func(p *float64, v float64) bool {
		if p == nil {
			return math.IsNaN(v)
		}
		return sameBits(*p, v)
	}
	return same(w.MaxCostUSD, q.maxUSD) && same(w.MinCoveragePct, q.minCov)
}

type wireOptimum struct {
	SpaceHash string    `json:"space_hash"`
	Query     wireQuery `json:"query"`
	Optimum   wirePoint `json:"optimum"`
}

type wireFrontier struct {
	SpaceHash string      `json:"space_hash"`
	Points    []wirePoint `json:"points"`
}

type wireCompare struct {
	Query   wireQuery `json:"query"`
	Regions []struct {
		SpaceHash string     `json:"space_hash"`
		Site      string     `json:"site"`
		Feasible  bool       `json:"feasible"`
		Optimum   *wirePoint `json:"optimum"`
	} `json:"regions"`
}

// samePoint reports whether an answered point is exactly the expected one.
func samePoint(w wirePoint, p pricedPoint) bool {
	d, e := w.Design, p.o.Design
	return sameBits(d.WindMW, e.WindMW) && sameBits(d.SolarMW, e.SolarMW) && sameBits(d.BatteryMWh, e.BatteryMWh) &&
		sameBits(d.DoD, e.DoD) && d.BatteryTech == e.BatteryTech && sameBits(d.FlexibleRatio, e.FlexibleRatio) &&
		sameBits(d.ExtraCapacityFrac, e.ExtraCapacityFrac) &&
		sameBits(w.OperationalG, float64(p.o.Operational)) && sameBits(w.EmbodiedG, float64(p.o.Embodied)) &&
		sameBits(w.TotalG, total(p.o)) && sameBits(w.CostUSD, p.cost)
}

// checkAnswer verifies one served response body against the linear scan.
func checkAnswer(q query, body []byte, sweeps map[string]pricedSweep) error {
	switch q.kind {
	case kindOptimum, kindOptimumCost, kindOptimumCov, kindOptimumBoth:
		var got wireOptimum
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decoding %s: %w", q.path, err)
		}
		want, ok := scanOptimum(sweeps[q.hash], q.maxUSD, q.minCov)
		if !ok || got.SpaceHash != q.hash || !got.Query.echoes(q) || !samePoint(got.Optimum, want) {
			return fmt.Errorf("%s answered %+v, linear scan gives %+v", q.path, got.Optimum, want.o.Design)
		}
	case kindFrontier, kindFrontierBand:
		var got wireFrontier
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decoding %s: %w", q.path, err)
		}
		var want []pricedPoint
		for _, p := range sweeps[q.hash].points {
			e := float64(p.o.Embodied)
			if (math.IsNaN(q.minE) || e >= q.minE) && (math.IsNaN(q.maxE) || e <= q.maxE) {
				want = append(want, p)
			}
		}
		if got.SpaceHash != q.hash || len(got.Points) != len(want) {
			return fmt.Errorf("%s answered %d points, linear scan gives %d", q.path, len(got.Points), len(want))
		}
		for i := range want {
			if !samePoint(got.Points[i], want[i]) {
				return fmt.Errorf("%s point %d answered %+v, linear scan gives %+v", q.path, i, got.Points[i].Design, want[i].o.Design)
			}
		}
	case kindCompare:
		var got wireCompare
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decoding %s: %w", q.path, err)
		}
		type entry struct {
			ps pricedSweep
			p  pricedPoint
			ok bool
		}
		var want []entry
		for _, ps := range sweeps {
			p, ok := scanOptimum(ps, q.maxUSD, q.minCov)
			want = append(want, entry{ps, p, ok})
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.ok != b.ok {
				return a.ok
			}
			if a.ok && !sameBits(total(a.p.o), total(b.p.o)) {
				return total(a.p.o) < total(b.p.o)
			}
			if a.ps.site != b.ps.site {
				return a.ps.site < b.ps.site
			}
			return a.ps.hash < b.ps.hash
		})
		if !got.Query.echoes(q) || len(got.Regions) != len(want) {
			return fmt.Errorf("%s answered %d regions for %+v, want %d", q.path, len(got.Regions), got.Query, len(want))
		}
		for i, w := range want {
			g := got.Regions[i]
			if g.SpaceHash != w.ps.hash || g.Feasible != w.ok || (w.ok && (g.Optimum == nil || !samePoint(*g.Optimum, w.p))) {
				return fmt.Errorf("%s region %d answered %s feasible=%v, linear scan gives %s feasible=%v", q.path, i, g.Site, g.Feasible, w.ps.site, w.ok)
			}
		}
	}
	return nil
}
