package main

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"carbonexplorer/internal/experiments"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/serve"
	"carbonexplorer/internal/sweep"
	"carbonexplorer/internal/units"
)

// Each output check must pass on the program's real outputs and fail on a
// corrupted copy: a dominated point added, an optimum's total perturbed, or
// a served answer swapped. The fixtures are one site (UT) so the test stays
// quick.

func evaluate(t *testing.T, in *explorer.Inputs, d explorer.Design) explorer.Outcome {
	t.Helper()
	o, err := in.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// perturbed returns o with its operational carbon raised by frac.
func perturbed(o explorer.Outcome, frac float64) explorer.Outcome {
	o.Operational = units.GramsCO2(float64(o.Operational)*(1+frac) + 1)
	return o
}

// dominatedBy returns a point every frontier point's neighbour beats: f
// with both carbon axes raised.
func dominatedBy(f explorer.Outcome) explorer.Outcome {
	f.Operational += 1e6
	f.Embodied += 1e6
	return f
}

func wantFail(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check passed on corrupted input", name)
	}
}

func wantPass(t *testing.T, name string, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: check failed on the program's output: %v", name, err)
	}
}

func TestChecksRejectCorruptedOutputs(t *testing.T) {
	in, err := experiments.SiteInputs("UT")
	if err != nil {
		t.Fatal(err)
	}

	// Figures: one site's four searches over the Section 5 grid.
	var rows []experiments.Figure15Row
	var all []explorer.Outcome
	for _, s := range explorer.AllStrategies() {
		res, err := in.Search(section5Space(in), s)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, experiments.Figure15Row{SiteID: "UT", Strategy: s, Optimal: res.Optimal})
		all = append(all, res.Points...)
	}
	wantPass(t, "nesting", checkNesting(rows))
	bad := append([]experiments.Figure15Row(nil), rows...)
	bad[explorer.RenewablesBattery].Optimal = perturbed(bad[explorer.RenewablesOnly].Optimal, 0.01)
	wantFail(t, "nesting with a perturbed battery optimum", checkNesting(bad))

	opt := rows[explorer.RenewablesBatteryCAS].Optimal
	wantPass(t, "re-simulation", checkResimulated(in, opt))
	wantFail(t, "re-simulation of a perturbed optimum", checkResimulated(in, perturbed(opt, 1e-6)))

	designs := section5Space(in).Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW())
	wantPass(t, "argmin sample", checkArgminSample(in, designs, opt, rand.New(rand.NewSource(1)), 20))
	wantFail(t, "argmin sample against a perturbed optimum", checkArgminSample(in, designs, perturbed(opt, 10), rand.New(rand.NewSource(1)), 20))

	frontier := explorer.ParetoFrontier(all)
	f14 := map[string][]explorer.Outcome{"UT": frontier, "OR": frontier, "NC": frontier}
	wantPass(t, "figure 14", checkFigure14(f14, rows))
	f14["UT"] = append(append([]explorer.Outcome(nil), frontier...), dominatedBy(frontier[0]))
	wantFail(t, "figure 14 with a dominated point", checkFigure14(f14, rows))
	f14["UT"] = []explorer.Outcome{perturbed(frontier[0], 0.5)}
	wantFail(t, "figure 14 with a perturbed minimum", checkFigure14(f14, rows))

	// Sweeps: an exhaustive sweep of the production space, published.
	dir := t.TempDir()
	path := filepath.Join(dir, "UT.json")
	space := explorer.DefaultSpace(in)
	res, err := sweep.Run(context.Background(), in, space, explorer.RenewablesBatteryCAS,
		sweep.Options{Checkpoint: sweep.CheckpointOptions{Path: path}})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sweep.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	wantPass(t, "published checkpoint", checkPublished(ck, res))
	wantPass(t, "complete checkpoint", checkComplete(ck, len(space.Enumerate(explorer.RenewablesBatteryCAS, in.AvgDemandMW()))))
	wantPass(t, "re-evaluated frontier", checkReevaluated(in, ck.Frontier))
	corrupt := *ck
	corrupt.Frontier = append(append([]explorer.Outcome(nil), ck.Frontier...), dominatedBy(ck.Frontier[0]))
	wantFail(t, "published frontier with a dominated point", checkPublished(&corrupt, res))
	worse := perturbed(*ck.Best, 0.5)
	corrupt = *ck
	corrupt.Best = &worse
	wantFail(t, "published checkpoint with a perturbed optimum", checkPublished(&corrupt, res))
	corrupt = *ck
	corrupt.Pending, corrupt.Done = 1, ck.Done-1
	wantFail(t, "incomplete checkpoint", checkComplete(&corrupt, ck.Designs))
	reeval := append([]explorer.Outcome(nil), ck.Frontier...)
	reeval[len(reeval)/2].Embodied *= 1 + 1e-12
	wantFail(t, "re-evaluated frontier with a perturbed point", checkReevaluated(in, reeval))

	sample := designs[:40]
	sampled := evaluateAll(t, in, sample)
	best := sampled[0]
	for _, o := range sampled {
		if total(o) < total(best) {
			best = o
		}
	}
	sampledFrontier := explorer.ParetoFrontier(sampled)
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	wantPass(t, "sampled sweep", checkSampled(in, sample, sampledFrontier, best, rng(), len(sample)))
	wantFail(t, "sampled sweep against a perturbed optimum", checkSampled(in, sample, sampledFrontier, perturbed(best, 1e-9), rng(), len(sample)))
	wantFail(t, "sampled sweep with a frontier point removed", checkSampled(in, sample, sampledFrontier[1:], best, rng(), len(sample)))

	lattice := coarseLattice(in, space, 3)
	latticeFrontier := explorer.ParetoFrontier(evaluateAll(t, in, lattice))
	wantPass(t, "lattice dominance", checkLatticeDominated(in, lattice, latticeFrontier))
	wantFail(t, "lattice dominance with a frontier point removed", checkLatticeDominated(in, lattice, latticeFrontier[1:]))

	// Served answers: one query of each kind against the real handler.
	ix, err := serve.Load([]string{path}, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := priceSweep(ck, in.PeakDemandMW())
	if err != nil {
		t.Fatal(err)
	}
	sweeps := map[string]pricedSweep{ps.hash: ps}
	qs := buildQueries(ix, 1)[:numKinds]
	h := serve.Handler(ix)
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", q.path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", q.path, rec.Code)
		}
		bodies[i] = rec.Body.Bytes()
		wantPass(t, "answer to "+kindNames[q.kind], checkAnswer(q, bodies[i], sweeps))
	}
	swapped := 0
	for i, q := range qs {
		for j := range qs {
			if string(bodies[j]) != string(bodies[i]) && routeOf(qs[j].kind) == routeOf(q.kind) {
				wantFail(t, "answer to "+kindNames[q.kind]+" swapped with "+kindNames[qs[j].kind], checkAnswer(q, bodies[j], sweeps))
				swapped++
				break
			}
		}
	}
	if swapped == 0 {
		t.Error("no two answers of one shape differ; the swap test checked nothing")
	}
}

var kindNames = [numKinds]string{"optimum", "optimum_cost", "optimum_coverage", "optimum_both", "frontier", "frontier_window", "compare"}

func evaluateAll(t *testing.T, in *explorer.Inputs, ds []explorer.Design) []explorer.Outcome {
	t.Helper()
	var out []explorer.Outcome
	for _, d := range ds {
		out = append(out, evaluate(t, in, d))
	}
	return out
}

// TestCoarseLatticeMatchesRoundZero pins the benchmark's own enumeration of
// the adaptive round-0 lattice to the designs the engine evaluates.
func TestCoarseLatticeMatchesRoundZero(t *testing.T) {
	in, err := experiments.SiteInputs("UT")
	if err != nil {
		t.Fatal(err)
	}
	space := explorer.DefaultSpace(in)
	g, err := explorer.NewCellGrid(space, explorer.RenewablesBatteryCAS, in.AvgDemandMW(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := g.RoundPoints(g.CoarseCells(), 0)
	got := coarseLattice(in, space, 3)
	key := func(d explorer.Design) [4]float64 {
		return [4]float64{d.WindMW, d.SolarMW, d.BatteryMWh, d.ExtraCapacityFrac}
	}
	less := func(ds []explorer.Design) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := key(ds[i]), key(ds[j])
			for k := range a {
				if a[k] != b[k] { //carbonlint:allow floatcmp sort key over exact lattice coordinates
					return a[k] < b[k]
				}
			}
			return false
		}
	}
	sort.Slice(want, less(want))
	sort.Slice(got, less(got))
	if len(got) != len(want) {
		t.Fatalf("lattice has %d designs, round 0 evaluates %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lattice design %d = %+v, round 0 evaluates %+v", i, got[i], want[i])
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	us := func(vs ...int) []time.Duration {
		var out []time.Duration
		for _, v := range vs {
			out = append(out, time.Duration(v)*time.Microsecond)
		}
		return out
	}
	if m := median(us(4, 1, 3, 2)); m != 2500*time.Nanosecond {
		t.Errorf("median of 1..4 µs = %v, want 2.5µs", m)
	}
	if q := quantile(us(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.99); q != 10*time.Microsecond {
		t.Errorf("p99 of 1..10 µs = %v, want 10µs", q)
	}
	if q := quantile(us(1, 2, 3, 4), 0.5); q != 2*time.Microsecond {
		t.Errorf("p50 of 1..4 µs = %v, want 2µs", q)
	}
}
