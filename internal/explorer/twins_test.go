package explorer

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/timeseries"
)

// section5Space is the Figure 14–15 search grid (experiments.searchSpace):
// 6 wind × 6 solar × 5 battery × 4 extra-capacity values, 1,080 designs
// over the four strategies.
func section5Space(in *Inputs) Space {
	avg := in.AvgDemandMW()
	scale := func(ms ...float64) []float64 {
		out := make([]float64, len(ms))
		for i, m := range ms {
			out[i] = m * avg
		}
		return out
	}
	return Space{
		WindMW:             scale(0, 1, 2, 4, 8, 14),
		SolarMW:            scale(0, 1, 2, 4, 8, 14),
		BatteryHours:       []float64{0, 2, 4, 8, 14},
		ExtraCapacityFracs: []float64{0, 0.25, 0.5, 1.0},
		DoD:                1.0,
		FlexibleRatio:      0.40,
	}
}

// referenceSearch is SearchContext without a pool or twins: every
// Space.Enumerate design, in order, through the reference Inputs.Evaluate.
func referenceSearch(t *testing.T, in *Inputs, space Space, strategy Strategy) SearchResult {
	t.Helper()
	res := SearchResult{Strategy: strategy}
	for _, d := range space.Enumerate(strategy, in.AvgDemandMW()) {
		o, err := in.Evaluate(d)
		if err != nil {
			t.Fatalf("reference %+v: %v", d, err)
		}
		if len(res.Points) == 0 || Better(o, res.Optimal) {
			res.Optimal = o
		}
		o.BatterySoC = timeseries.Series{}
		res.Points = append(res.Points, o)
		res.Report.Evaluated++
	}
	return res
}

// countingHook returns a copy of in whose EvalHook counts its calls.
func countingHook(in *Inputs) (*Inputs, *atomic.Int64) {
	var n atomic.Int64
	c := *in
	c.EvalHook = func(Design) error {
		n.Add(1)
		return nil
	}
	return &c, &n
}

// TestSearchTwinsMatchReference: on NC, a solar-only site, Search simulates
// one wind value in six and fills the rest in from their twins, yet its
// Points, Optimal (SoC trace included) and Report equal the every-design
// reference for every strategy; EvalHook runs 180 times for the 1,080
// designs.
func TestSearchTwinsMatchReference(t *testing.T) {
	in, calls := countingHook(siteInputs(t, "NC"))
	space := section5Space(in)
	designs := 0
	for _, strategy := range AllStrategies() {
		got, err := in.Search(space, strategy)
		if err != nil {
			t.Fatalf("%v: %v", strategy, err)
		}
		want := referenceSearch(t, in, space, strategy)
		designs += len(want.Points)
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("%v: Points differ from the every-design reference", strategy)
		}
		if !reflect.DeepEqual(got.Optimal, want.Optimal) {
			t.Fatalf("%v: Optimal differs:\nsearch:    %+v\nreference: %+v", strategy, got.Optimal.Design, want.Optimal.Design)
		}
		if !reflect.DeepEqual(got.Report, want.Report) {
			t.Fatalf("%v: Report %+v, reference %+v", strategy, got.Report, want.Report)
		}
	}
	if designs != 1080 || calls.Load() != 180 {
		t.Fatalf("EvalHook ran %d times for %d designs, want 180 for 1080", calls.Load(), designs)
	}
}

// TestSearchTwinsOfFailedRepresentative: a failure is per design, so when
// EvalHook fails a representative each of its twins is evaluated — and
// hooked — on its own.
func TestSearchTwinsOfFailedRepresentative(t *testing.T) {
	in := *siteInputs(t, "NC")
	avg := in.AvgDemandMW()
	space := section5Space(&in)
	failed := Design{SolarMW: 2 * avg}
	var mu sync.Mutex
	calls := map[Design]int{}
	in.EvalHook = func(d Design) error {
		mu.Lock()
		defer mu.Unlock()
		calls[d]++
		if d == failed {
			return errors.New("injected failure")
		}
		return nil
	}
	got, err := in.Search(space, RenewablesOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Report.Failures) != 1 || got.Report.Failures[0].Design != failed {
		t.Fatalf("failures %+v, want only the representative %+v", got.Report.Failures, failed)
	}
	want := referenceSearch(t, &in, space, RenewablesOnly)
	var survivors []Outcome
	for _, p := range want.Points {
		if p.Design != failed {
			survivors = append(survivors, p)
		}
	}
	if !reflect.DeepEqual(got.Points, survivors) {
		t.Fatal("Points differ from the reference without the failed design")
	}
	// 6 representatives plus the 5 twins of the failed one.
	if len(calls) != 11 {
		t.Fatalf("EvalHook saw %d designs, want 11", len(calls))
	}
	for _, w := range space.WindMW {
		d := failed
		d.WindMW = w
		if calls[d] != 1 {
			t.Fatalf("EvalHook ran %d times for %+v, want 1", calls[d], d)
		}
	}
}

// TestSearchTwinsOfSkippedRepresentative: a cancelled search counts the
// twins of every skipped representative as skipped, never as evaluated.
func TestSearchTwinsOfSkippedRepresentative(t *testing.T) {
	in := *siteInputs(t, "NC")
	space := section5Space(&in)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	in.EvalHook = func(Design) error {
		if n.Add(1) == 40 {
			cancel()
		}
		return nil
	}
	got, err := in.SearchContext(ctx, space, RenewablesBatteryCAS)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	designs := space.Enumerate(RenewablesBatteryCAS, in.AvgDemandMW())
	twins := in.Twins(designs)
	done := map[Design]bool{}
	for _, p := range got.Points {
		done[p.Design] = true
	}
	if got.Report.Skipped == 0 || got.Report.Evaluated+got.Report.Skipped != len(designs) {
		t.Fatalf("report %+v over %d designs", got.Report, len(designs))
	}
	for i, d := range designs {
		if done[d] != done[designs[twins[i]]] {
			t.Fatalf("%+v evaluated %v, its representative %v", d, done[d], done[designs[twins[i]]])
		}
	}
}

// TestTwinsOnlyOnDeadShapes: generating sites have no twins, and on NC the
// wind axis of DefaultSpace collapses to one representative per year.
func TestTwinsOnlyOnDeadShapes(t *testing.T) {
	for _, id := range []string{"UT", "OR"} {
		in := siteInputs(t, id)
		if twins := in.Twins(DefaultSpace(in).Enumerate(RenewablesBatteryCAS, in.AvgDemandMW())); twins != nil {
			t.Fatalf("%s: twins on a site where wind and solar both generate", id)
		}
	}
	in := siteInputs(t, "NC")
	designs := DefaultSpace(in).Enumerate(RenewablesBatteryCAS, in.AvgDemandMW())
	twins := in.Twins(designs)
	reps := 0
	for i, r := range twins {
		rep, d := designs[r], designs[i]
		d.WindMW = 0
		switch {
		case r == i:
			reps++
			if rep.WindMW != 0 {
				t.Fatalf("representative %+v invests in wind", rep)
			}
		case r > i || rep != d:
			t.Fatalf("design %d (%+v) has twin %d (%+v)", i, designs[i], r, rep)
		}
	}
	if len(designs) != 1470 || reps != 210 {
		t.Fatalf("%d representatives of %d designs, want 210 of 1470", reps, len(designs))
	}
}

// TestTwinsKeepInvalidInvestments: only a valid investment in a dead shape
// is zeroed — a negative, infinite or NaN one must still fail on its own.
func TestTwinsKeepInvalidInvestments(t *testing.T) {
	const n = 48
	in, err := NewInputsFromSeries(grid.MustSite("NC"),
		timeseries.Constant(n, 10), timeseries.Constant(n, 0),
		timeseries.Generate(n, func(h int) float64 { return math.Max(0, math.Sin(float64(h%24-6)/12*math.Pi)) }),
		timeseries.Constant(n, 400), carbon.DefaultEmbodiedParams())
	if err != nil {
		t.Fatal(err)
	}
	designs := []Design{
		{SolarMW: 5, WindMW: 3},
		{SolarMW: 5},
		{SolarMW: 5, WindMW: 7},
		{SolarMW: 5, WindMW: -1},
		{SolarMW: 5, WindMW: math.Inf(1)},
		{SolarMW: 5, WindMW: math.NaN()},
		{SolarMW: 6, WindMW: 3},
	}
	if got, want := in.Twins(designs), []int{0, 0, 0, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Twins = %v, want %v", got, want)
	}
	for _, d := range designs[1:3] {
		a, errA := in.Evaluate(designs[0])
		b, errB := in.Evaluate(d)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		b.Design = a.Design
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("twins %+v and %+v simulate differently", designs[0], d)
		}
	}
}

// TestEvaluateAllTwins: the shared pool fills every slot of a slice — on one
// evaluator and on several — with the outcome Evaluate gives that design,
// simulating each twin class once, its representative first; one evaluator
// takes the representatives in slice order. Under a cancelled context every
// design gets ErrSkipped and none is hooked.
func TestEvaluateAllTwins(t *testing.T) {
	in := *siteInputs(t, "NC")
	designs := section5Space(&in).Enumerate(RenewablesOnly, in.AvgDemandMW())
	var mu sync.Mutex
	var hooked []Design
	in.EvalHook = func(d Design) error {
		mu.Lock()
		defer mu.Unlock()
		hooked = append(hooked, d)
		return nil
	}
	var reps []Design
	for i, r := range in.Twins(designs) {
		if r == i {
			reps = append(reps, designs[i])
		}
	}
	out := make([]Outcome, len(designs))
	errs := make([]error, len(designs))
	for _, workers := range []int{1, 3} {
		evs := make([]*Evaluator, workers)
		for w := range evs {
			evs[w] = in.NewEvaluator()
		}
		hooked = nil
		in.EvaluateAll(context.Background(), evs, designs, out, errs)
		if len(designs) != 36 || len(hooked) != 6 {
			t.Fatalf("%d workers: %d of %d designs simulated, want 6 of 36", workers, len(hooked), len(designs))
		}
		if workers == 1 && !reflect.DeepEqual(hooked, reps) {
			t.Fatalf("one evaluator simulated %+v, want the representatives in order %+v", hooked, reps)
		}
		for i, d := range designs {
			want, err := in.Evaluate(d)
			if err != nil || errs[i] != nil {
				t.Fatalf("%d workers, %+v: errors %v and %v", workers, d, errs[i], err)
			}
			if !reflect.DeepEqual(out[i], want) {
				t.Fatalf("%d workers, %+v: pool outcome differs from Evaluate", workers, d)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hooked = nil
	in.EvaluateAll(ctx, []*Evaluator{in.NewEvaluator(), in.NewEvaluator()}, designs, out, errs)
	for i, err := range errs[:len(designs)] {
		if !errors.Is(err, ErrSkipped) {
			t.Fatalf("design %d under a cancelled context: error %v, want ErrSkipped", i, err)
		}
	}
	if len(hooked) != 0 {
		t.Fatalf("a cancelled pool simulated %d designs", len(hooked))
	}
}
