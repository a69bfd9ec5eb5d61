package explorer

import (
	"math"

	"carbonexplorer/internal/timeseries"
)

// Twins maps each design to the index of the first design in the list that
// simulates identically to it once every investment the site cannot turn
// into generation is zeroed. Such an investment is one whose shape has no
// nonzero sample — for validated inputs, no positive sample — like wind in
// the paper's solar-only balancing authorities (NC, GA, TN, AL).
//
// twins[i] == i marks a representative; every other design has
// twins[i] < i, and its outcome is its representative's with Design
// replaced, bit for bit (DESIGN.md, "Twin designs"). Twins returns nil when
// both shapes generate, so such sites pay nothing. Searches and sweeps use
// it to simulate each distinct year once.
func (in *Inputs) Twins(designs []Design) []int {
	key := in.TwinKey()
	if key == nil {
		return nil
	}
	twins := make([]int, len(designs))
	first := make(map[Design]int, len(designs))
	for i, d := range designs {
		k := key(d)
		j, ok := first[k]
		if !ok {
			j = i
			first[k] = i
		}
		twins[i] = j
	}
	return twins
}

// TwinKey returns the function Twins groups designs by: it maps a design to
// itself with every valid investment in a shape that never generates zeroed,
// so two designs simulate the same year exactly when their keys are equal.
// TwinKey returns nil when both shapes generate, where every design is its
// own key. It scans both shapes once; the returned function is cheap and
// safe for concurrent use.
func (in *Inputs) TwinKey() func(Design) Design {
	deadWind, deadSolar := allZero(in.WindShape), allZero(in.SolarShape)
	if !deadWind && !deadSolar {
		return nil
	}
	return func(d Design) Design {
		if deadWind && zeroable(d.WindMW) {
			d.WindMW = 0
		}
		if deadSolar && zeroable(d.SolarMW) {
			d.SolarMW = 0
		}
		return d
	}
}

// allZero reports whether every sample of s is zero: any investment in such
// a shape scales (by factor 1, see scaleToMaxFactor) to an all-zero addend.
func allZero(s timeseries.Series) bool {
	for _, v := range s.Raw() {
		if v != 0 {
			return false
		}
	}
	return true
}

// zeroable reports whether an investment may be replaced by zero without
// changing the simulation of a dead shape. Only valid investments qualify:
// a negative, infinite or NaN one must keep failing Design.Validate.
func zeroable(mw float64) bool {
	return mw > 0 && !math.IsInf(mw, 1)
}
