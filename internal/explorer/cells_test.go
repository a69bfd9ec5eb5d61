package explorer

import (
	"math"
	"testing"

	"carbonexplorer/internal/grid"
)

func testGrid(t *testing.T) (CellGrid, *Inputs) {
	t.Helper()
	in := siteInputs(t, "UT")
	g, err := NewCellGrid(DefaultSpace(in), RenewablesBatteryCAS, in.AvgDemandMW(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return g, in
}

func TestNewCellGridBoundsAndPinning(t *testing.T) {
	g, in := testGrid(t)
	avg := in.AvgDemandMW()
	if g.Lo[AxisWind] != 0 || g.Hi[AxisWind] != 16*avg || !g.Free[AxisWind] {
		t.Fatalf("wind axis: lo %v hi %v free %v", g.Lo[AxisWind], g.Hi[AxisWind], g.Free[AxisWind])
	}
	if g.Lo[AxisBattery] != 0 || g.Hi[AxisBattery] != 16*avg {
		t.Fatalf("battery axis: lo %v hi %v", g.Lo[AxisBattery], g.Hi[AxisBattery])
	}
	if g.Hi[AxisExtra] != 1.0 || !g.Free[AxisExtra] {
		t.Fatalf("extra axis: hi %v free %v", g.Hi[AxisExtra], g.Free[AxisExtra])
	}

	// RenewablesOnly pins battery and extra capacity to zero.
	ro, err := NewCellGrid(DefaultSpace(in), RenewablesOnly, avg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Free[AxisBattery] || ro.Free[AxisExtra] || ro.Hi[AxisBattery] != 0 || ro.Hi[AxisExtra] != 0 {
		t.Fatalf("renewables-only grid not pinned: %+v", ro)
	}
	if ro.FlexibleRatio != 0 {
		t.Fatalf("renewables-only grid kept flexible ratio %v", ro.FlexibleRatio)
	}
}

func TestNewCellGridRejectsBadInputs(t *testing.T) {
	in := siteInputs(t, "UT")
	if _, err := NewCellGrid(DefaultSpace(in), RenewablesBatteryCAS, in.AvgDemandMW(), 1); err == nil {
		t.Fatal("coarse=1 accepted")
	}
	empty := DefaultSpace(in)
	empty.SolarMW = nil
	if _, err := NewCellGrid(empty, RenewablesBatteryCAS, in.AvgDemandMW(), 3); err == nil {
		t.Fatal("empty solar axis accepted")
	}
}

func TestCoordDyadicStability(t *testing.T) {
	g, _ := testGrid(t)
	// A depth-d point must have bit-identical coordinates at depth d+1 with
	// its index doubled, for every free axis.
	for a := 0; a < NumAxes; a++ {
		if !g.Free[a] {
			continue
		}
		for depth := 0; depth < 4; depth++ {
			n := g.PointsPerAxis(depth)
			for k := 0; k < n; k++ {
				c0 := g.Coord(a, k, depth)
				c1 := g.Coord(a, 2*k, depth+1)
				if c0 != c1 {
					t.Fatalf("axis %d k=%d depth=%d: %v != %v at next depth", a, k, depth, c0, c1)
				}
			}
		}
	}
	// Endpoints are exact.
	if g.Coord(AxisWind, 0, 3) != g.Lo[AxisWind] || g.Coord(AxisWind, g.PointsPerAxis(3)-1, 3) != g.Hi[AxisWind] {
		t.Fatal("endpoints drifted")
	}
}

func TestCoarseCellsAndChildrenOrdering(t *testing.T) {
	g, _ := testGrid(t)
	cells := g.CoarseCells()
	// 4 free axes at coarse=3 → (3-1)^4 cells.
	if len(cells) != 16 {
		t.Fatalf("coarse cells = %d, want 16", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if !lessIdx(cells[i-1].Idx, cells[i].Idx) {
			t.Fatalf("coarse cells out of order at %d: %v !< %v", i, cells[i-1], cells[i])
		}
	}
	kids := g.Children(cells[3])
	if len(kids) != 16 {
		t.Fatalf("children = %d, want 2^4", len(kids))
	}
	for i := 1; i < len(kids); i++ {
		if !lessIdx(kids[i-1].Idx, kids[i].Idx) {
			t.Fatalf("children out of order at %d", i)
		}
	}
	for _, k := range kids {
		for a := 0; a < NumAxes; a++ {
			if k.Idx[a] != cells[3].Idx[a]*2 && k.Idx[a] != cells[3].Idx[a]*2+1 {
				t.Fatalf("child %v not a subdivision of %v", k, cells[3])
			}
		}
	}
}

func TestRoundPointsCoarseLatticeAndRefinement(t *testing.T) {
	g, _ := testGrid(t)
	round0 := g.RoundPoints(g.CoarseCells(), 0)
	// Round 0 is the full coarse lattice: 3^4 unique corners.
	if len(round0) != 81 {
		t.Fatalf("round-0 points = %d, want 81", len(round0))
	}
	seen := make(map[Design]bool)
	for i, d := range round0 {
		if seen[d] {
			t.Fatalf("duplicate design at %d: %+v", i, d)
		}
		seen[d] = true
	}

	// Refining one cell yields only new (odd-index) points, none of which
	// may coincide with a coarse lattice point.
	kids := g.Children(g.CoarseCells()[0])
	round1 := g.RoundPoints(kids, 1)
	if len(round1) == 0 {
		t.Fatal("no refinement points")
	}
	for _, d := range round1 {
		if seen[d] {
			t.Fatalf("round-1 point %+v re-evaluates a coarse point", d)
		}
	}
	// 3^4 corners of the subdivided cell minus the 2^4 already-evaluated
	// even corners.
	if want := 81 - 16; len(round1) != want {
		t.Fatalf("round-1 points = %d, want %d", len(round1), want)
	}
}

func TestRoundPointsNormalizesDesigns(t *testing.T) {
	g, _ := testGrid(t)
	for _, d := range g.RoundPoints(g.CoarseCells(), 0) {
		if err := d.Validate(); err != nil {
			t.Fatalf("invalid design %+v: %v", d, err)
		}
		if d.BatteryMWh == 0 && d.DoD != 0 {
			t.Fatalf("battery-less design kept DoD: %+v", d)
		}
	}
}

// TestBoundsAreSound: on every site and strategy at 8,760 h, each coarse
// cell's lower bounds must sit at or below the minimum operational and
// embodied carbon over the cell's depth-1 lattice points (its corners and
// the points its subdivision adds).
func TestBoundsAreSound(t *testing.T) {
	for _, site := range grid.Sites() {
		t.Run(site.ID, func(t *testing.T) {
			t.Parallel()
			in := siteInputs(t, site.ID)
			ev := in.NewEvaluator()
			ev.DiscardSoCTrace = true
			for _, strategy := range AllStrategies() {
				g, err := NewCellGrid(DefaultSpace(in), strategy, in.AvgDemandMW(), 3)
				if err != nil {
					t.Fatal(err)
				}
				m := NewCellModel(in, g)
				memo := map[[NumAxes]int]Outcome{}
				for _, c := range g.CoarseCells() {
					opLB, emLB := m.Bounds(c, 0)
					if opLB < 0 || emLB < 0 {
						t.Fatalf("%v cell %v: negative bound op %v em %v", strategy, c, opLB, emLB)
					}
					minOp, minEm := math.Inf(1), math.Inf(1)
					for _, key := range depth1Points(g, c) {
						o, ok := memo[key]
						if !ok {
							if o, err = ev.Evaluate(g.designAt(key, 1)); err != nil {
								t.Fatal(err)
							}
							memo[key] = o
						}
						minOp = math.Min(minOp, float64(o.Operational))
						minEm = math.Min(minEm, float64(o.Embodied))
					}
					if minOp < opLB {
						t.Fatalf("%v cell %v: operational minimum %v below bound %v", strategy, c, minOp, opLB)
					}
					if minEm < emLB*(1-1e-9) {
						t.Fatalf("%v cell %v: embodied minimum %v below bound %v", strategy, c, minEm, emLB)
					}
				}
			}
		})
	}
}

// depth1Points lists the depth-1 lattice indices inside a coarse cell: along
// each free axis the cell's two corners and the midpoint between them.
func depth1Points(g CellGrid, c Cell) [][NumAxes]int {
	keys := [][NumAxes]int{{}}
	for a := 0; a < NumAxes; a++ {
		if !g.Free[a] {
			continue
		}
		next := make([][NumAxes]int, 0, 3*len(keys))
		for _, k := range keys {
			for off := 0; off <= 2; off++ {
				k[a] = 2*c.Idx[a] + off
				next = append(next, k)
			}
		}
		keys = next
	}
	return keys
}

func TestReachable(t *testing.T) {
	frontier := []Outcome{
		{Operational: 100, Embodied: 10},
		{Operational: 10, Embodied: 100},
	}
	if Reachable(150, 20, frontier, 0, 0) {
		t.Fatal("dominated bounds reported reachable")
	}
	if !Reachable(50, 50, frontier, 0, 0) {
		t.Fatal("gap in the frontier reported unreachable")
	}
	// Slack turns a near-miss into a prune.
	if Reachable(95, 8, frontier, 10, 5) {
		t.Fatal("slack not applied")
	}
	if !Reachable(0, 0, nil, 0, 0) {
		t.Fatal("empty frontier must keep every cell")
	}
}

func TestBoundsZeroAllocs(t *testing.T) {
	g, in := testGrid(t)
	m := NewCellModel(in, g)
	cells := g.CoarseCells()
	frontier := []Outcome{{Operational: 1, Embodied: 1}}
	allocs := testing.AllocsPerRun(100, func() {
		for _, c := range cells {
			opLB, emLB := m.Bounds(c, 1)
			Reachable(opLB, emLB, frontier, 0.5, 0.5)
		}
	})
	if allocs != 0 {
		t.Fatalf("Bounds/Reachable allocate: %v allocs/run", allocs)
	}
}
