package serve

import (
	"errors"
	"math"
)

// Unconstrained marks a Query field as absent. Any NaN works; the named
// constant keeps call sites readable.
var Unconstrained = math.NaN()

// Query selects the optimum under constraints. NaN (Unconstrained) fields
// impose nothing; the zero Query — both fields zero — is a real (and almost
// always infeasible) query for a free, fully-covered design, so construct
// queries with Unconstrained explicitly or via the HTTP layer.
type Query struct {
	// MaxCostUSD admits only designs whose capital expenditure is at most
	// this many dollars.
	MaxCostUSD float64
	// MinCoveragePct admits only designs with at least this 24/7 renewable
	// coverage, in [0, 100].
	MinCoveragePct float64
}

// ErrInfeasible reports that no frontier design satisfies a query's
// constraints — contradictory bounds, a budget below the cheapest design,
// or an empty sweep.
var ErrInfeasible = errors.New("serve: no frontier design satisfies the constraints")

// Optimum returns the minimum-total-carbon frontier point satisfying the
// query (ties toward higher coverage, mirroring the sweep engine's
// ordering).
//
// This is the hot read path: zero allocations per call. Single-constraint
// queries binary-search the precomputed sorted view and read the
// prefix-argmin table — O(log n) in the frontier size, with no design
// re-scanned. Dual-constraint queries walk the frontier once (the feasible
// region of a 2-D constraint pair has no single sorted order), still
// allocation-free and still bounded by the frontier, never the grid.
//
// The queryable set is the retained Pareto frontier. A design dominated on
// both carbon axes is dropped by the sweep's fold, so under cost or
// coverage constraints the answer is the best non-dominated design — see
// docs/SERVING.md for what that approximates and why it is the right
// serving trade-off.
//
// The //carbonlint:hotpath marker is the static face of the runtime gate:
// hotalloc rejects allocating constructs in exactly the functions
// TestOptimumZeroAllocs measures (the marker census is pinned by
// TestHotpathMarkersNameZeroAllocGatedSymbols).
//
//carbonlint:hotpath
func (s *Snapshot) Optimum(q Query) (Point, error) {
	if len(s.points) == 0 {
		return Point{}, ErrInfeasible
	}
	hasCost := !math.IsNaN(q.MaxCostUSD)
	hasCov := !math.IsNaN(q.MinCoveragePct)
	switch {
	case !hasCost && !hasCov:
		return s.points[s.bestAll], nil
	case hasCost && !hasCov:
		k := countLE(s.costAsc, q.MaxCostUSD)
		if k == 0 {
			return Point{}, ErrInfeasible
		}
		return s.points[s.costBest[k-1]], nil
	case !hasCost && hasCov:
		k := countGEDesc(s.covDesc, q.MinCoveragePct)
		if k == 0 {
			return Point{}, ErrInfeasible
		}
		return s.points[s.covBest[k-1]], nil
	}
	best := -1
	for i := range s.points {
		p := &s.points[i]
		if p.CostUSD > q.MaxCostUSD || p.Outcome.CoveragePct < q.MinCoveragePct {
			continue
		}
		if best < 0 || betterPoint(p, &s.points[best]) {
			best = i
		}
	}
	if best < 0 {
		return Point{}, ErrInfeasible
	}
	return s.points[best], nil
}

// FrontierBounds returns the half-open index range [lo, hi) of frontier
// points whose embodied carbon lies in [minEmbodiedG, maxEmbodiedG]. NaN
// bounds impose nothing. Zero allocations; two binary searches over the
// embodied array the frontier is already sorted by.
//
//carbonlint:hotpath
func (s *Snapshot) FrontierBounds(minEmbodiedG, maxEmbodiedG float64) (lo, hi int) {
	lo, hi = 0, len(s.embodied)
	if !math.IsNaN(minEmbodiedG) {
		lo = countLT(s.embodied, minEmbodiedG)
	}
	if !math.IsNaN(maxEmbodiedG) {
		hi = countLE(s.embodied, maxEmbodiedG)
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// betterPoint mirrors explorer.Better, the optimum ordering — minimum total
// carbon, ties toward higher coverage — so serve answers agree with the
// batch fold.
//
//carbonlint:hotpath
func betterPoint(a, b *Point) bool {
	at, bt := a.Outcome.Total(), b.Outcome.Total()
	if at != bt { //carbonlint:allow floatcmp exact-bits tie-break mirrors explorer.Better so serve and batch agree
		return at < bt
	}
	return a.Outcome.CoveragePct > b.Outcome.CoveragePct
}

// countLE returns how many values of the ascending slice are <= x.
//
//carbonlint:hotpath
func countLE(asc []float64, x float64) int {
	lo, hi := 0, len(asc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if asc[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countLT returns how many values of the ascending slice are < x.
//
//carbonlint:hotpath
func countLT(asc []float64, x float64) int {
	lo, hi := 0, len(asc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if asc[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countGEDesc returns how many values of the descending slice are >= x.
//
//carbonlint:hotpath
func countGEDesc(desc []float64, x float64) int {
	lo, hi := 0, len(desc)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if desc[mid] >= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
