package main

import (
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"time"

	"carbonexplorer/internal/battery"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/scheduler"
	"carbonexplorer/internal/serve"
	"carbonexplorer/internal/sweep"
	"carbonexplorer/internal/timeseries"
)

// The per-layer metrics are measured from outside the program: the traced
// passes count evaluations through each Inputs' EvalHook and time the
// coordinator's routes with a wrapping handler, and afterwards the layers'
// public functions are replayed single-threaded over the designs, frontiers
// and queries the workload itself produced.

// shape classifies a design by the simulation path it takes.
type shape int

const (
	shapeBalance shape = iota // renewables only: the scheduler's fast path
	shapeBattery              // battery dispatch, no deferral
	shapeCAS                  // carbon-aware deferral, no battery
	shapeBoth                 // battery and deferral
	numShapes
)

var shapeNames = [numShapes]string{"balance", "battery", "cas", "both"}
var evalNames = [numShapes]string{"renewables", "battery", "cas", "all"}

func shapeOf(d explorer.Design) shape {
	switch {
	case d.BatteryMWh > 0 && d.FlexibleRatio > 0:
		return shapeBoth
	case d.BatteryMWh > 0:
		return shapeBattery
	case d.FlexibleRatio > 0:
		return shapeCAS
	}
	return shapeBalance
}

// schedulerSamples caps the designs per shape replayed through the
// scheduler alone.
const schedulerSamples = 1500

// installHooks gives every site's inputs a counting EvalHook in traced
// runs; untraced runs evaluate with no hook, as the CLI does.
func (b *bench) installHooks() {
	if b.tr == nil {
		return
	}
	for id, in := range b.figIn {
		b.tr.hook(b.tr.figLogs, id, in)
	}
	for id, in := range b.sweepIn {
		b.tr.hook(b.tr.sweepLogs, id, in)
	}
}

// replayed is one design re-evaluated single-threaded.
type replayed struct {
	site string
	o    explorer.Outcome
	dur  time.Duration
}

// replayEvals re-evaluates each site's logged designs in logged order with
// one Evaluator per site, configured as the stage's own workers are: the
// figures' search pool keeps SoC traces, the sweep engine discards them.
func replayEvals(inputs map[string]*explorer.Inputs, logs map[string]*evalLog, discardSoC bool) ([]replayed, error) {
	var out []replayed
	for _, site := range sortedKeys(logs) {
		ev := inputs[site].NewEvaluator()
		ev.DiscardSoCTrace = discardSoC
		for _, d := range logs[site].designs {
			t0 := time.Now()
			o, err := ev.Evaluate(d)
			dur := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("replaying %s %+v: %w", site, d, err)
			}
			// The trace copy is timed, as in the search pool; keeping 17,280
			// of them would hold most of a gigabyte.
			o.BatterySoC = timeseries.Series{}
			out = append(out, replayed{site: site, o: o, dur: dur})
		}
	}
	return out, nil
}

func sumDur(rs []replayed) time.Duration {
	var t time.Duration
	for _, r := range rs {
		t += r.dur
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return us(t) / float64(len(ds))
}

// layers runs the replays and returns the per-layer metrics; it also prints
// the layer rows that exist only on some workloads and the reconciliation
// of layer costs against the end-to-end times.
func (b *bench) layers(passes []*pass, qs []query) (map[string]metric, error) {
	t := b.tr
	first := passes[0]
	m := map[string]metric{}
	var figures, sweeps []time.Duration
	var clientLat []time.Duration
	for _, p := range passes {
		figures = append(figures, p.figures)
		sweeps = append(sweeps, p.sweep)
		clientLat = append(clientLat, p.latencies...)
	}
	m["explorer.inputs_ms"] = metric{float64(median(t.samples["explorer.inputs"])) / 1e6, "ms"}

	// Evaluation kernels, over the figures' own designs. Each replay
	// starts from a collected heap, like each measured stage.
	settle()
	sp := t.begin("replay Evaluator.Evaluate (figures)", 0)
	figRep, err := replayEvals(b.figIn, t.figLogs, false)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	var byShape [numShapes][]time.Duration
	for _, r := range figRep {
		s := shapeOf(r.o.Design)
		byShape[s] = append(byShape[s], r.dur)
	}
	for s := shape(0); s < numShapes; s++ {
		m["explorer.eval_"+evalNames[s]+"_us"] = metric{meanUS(byShape[s]), "us"}
	}
	settle()
	supply, sched, err := b.replayKernels(t.figLogs)
	if err != nil {
		return nil, err
	}
	m["timeseries.supply_us"] = metric{meanUS(supply), "us"}
	for s := shape(0); s < numShapes; s++ {
		m["scheduler."+shapeNames[s]+"_us"] = metric{meanUS(sched[s]), "us"}
	}
	m["explorer.search_evals"] = metric{float64(t.figEvals0), "count"}
	m["explorer.search_alloc_kb"] = metric{float64(t.figAlloc0) / 1024 / float64(t.figEvals0), "KB"}
	m["explorer.pareto_us"] = metric{paretoReplay(figRep), "us"}

	// The explorer pool's scaling: the figures once more on one core.
	settle()
	sp = t.begin("figures at GOMAXPROCS=1", 0)
	t.startPass(-1) // count, but do not log, these evaluations
	prev := runtime.GOMAXPROCS(1)
	one := &pass{}
	err = b.runFigures(one, sp)
	runtime.GOMAXPROCS(prev)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	m["explorer.pool_efficiency"] = metric{one.figures.Seconds() / (float64(prev) * median(figures).Seconds()), "ratio"}

	// Sweep engine: evaluations, checkpoints, and the share of the stage's
	// core time the replayed evaluations do not explain.
	settle()
	sp = t.begin("replay Evaluator.Evaluate (sweeps)", 0)
	sweepRep, err := replayEvals(b.sweepIn, t.sweepLogs, true)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	var ckBytes int64
	for _, path := range first.paths {
		n, err := fileSize(path)
		if err != nil {
			return nil, err
		}
		ckBytes += n
	}
	m["sweep.evals"] = metric{float64(t.sweepEvals0), "count"}
	m["sweep.checkpoint_kb"] = metric{float64(ckBytes) / 1024, "KB"}
	coreTime := median(sweeps).Seconds() * float64(runtime.GOMAXPROCS(0))
	m["sweep.engine_frac"] = metric{1 - sumDur(sweepRep).Seconds()/coreTime, "ratio"}
	settle()
	bounds, err := b.boundsReplay(first)
	if err != nil {
		return nil, err
	}
	m["explorer.bounds_us"] = metric{bounds, "us"}

	// Serving: the query path in process, against the first pass's index.
	m["serve.load_ms"] = metric{float64(median(t.samples["serve.load"])) / 1e6, "ms"}
	settle()
	optNS, handler := serveReplay(first.index, qs)
	m["serve.optimum_ns"] = metric{optNS, "ns"}
	var all []time.Duration
	for _, route := range []string{"optimum", "frontier", "compare"} {
		m["serve.handler_"+route+"_us"] = metric{us(median(handler[route])), "us"}
		all = append(all, handler[route]...)
	}
	m["serve.http_us"] = metric{us(median(clientLat) - median(all)), "us"}

	fmt.Println("evaluation cost by shape (accounting = eval - scheduler - supply):")
	for s := shape(0); s < numShapes; s++ {
		e, sc, su := meanUS(byShape[s]), meanUS(sched[s]), meanUS(supply)
		fmt.Printf("  %-10s %6d designs: eval %8.1f us = scheduler %8.1f + supply %6.1f + accounting %6.1f\n",
			evalNames[s], len(byShape[s]), e, sc, su, e-sc-su)
	}
	b.printWorkloadLayers(first)
	printReconciliation(median(figures), median(sweeps), sumDur(figRep), sumDur(sweepRep), median(clientLat), median(all))
	return m, nil
}

// replayKernels times the supply composition and the scheduler alone over
// up to schedulerSamples designs of each shape taken from the figures.
func (b *bench) replayKernels(logs map[string]*evalLog) ([]time.Duration, [numShapes][]time.Duration, error) {
	var supply []time.Duration
	var sched [numShapes][]time.Duration
	sp := b.tr.begin("replay timeseries.ScaleAddInto + scheduler.SimulateScratch", 0)
	defer b.tr.end(sp)
	perSite := (schedulerSamples + len(logs) - 1) / len(logs)
	for _, site := range sortedKeys(logs) {
		in := b.figIn[site]
		buf := make([]float64, in.Demand.Len())
		renewable := timeseries.Adopt(buf)
		wmax, smax := in.WindShape.MaxValue(), in.SolarShape.MaxValue()
		var scratch scheduler.Scratch
		var bat battery.Battery
		var taken [numShapes]int
		for _, d := range logs[site].designs {
			s := shapeOf(d)
			if taken[s] >= perSite {
				continue
			}
			taken[s]++
			t0 := time.Now()
			timeseries.Zero(buf)
			if d.WindMW > 0 && wmax > 0 {
				in.WindShape.ScaleAddInto(buf, d.WindMW/wmax)
			}
			if d.SolarMW > 0 && smax > 0 {
				in.SolarShape.ScaleAddInto(buf, d.SolarMW/smax)
			}
			supply = append(supply, time.Since(t0))
			cfg := scheduler.SimConfig{
				Demand: in.Demand, Renewable: renewable, FlexibleRatio: d.FlexibleRatio,
				DeferralWindowHours: 24, AssumeValid: true,
			}
			if d.FlexibleRatio > 0 {
				cfg.CapacityMW = in.PeakDemandMW() * (1 + d.ExtraCapacityFrac)
			}
			if d.BatteryMWh > 0 {
				if err := bat.Init(d.BatteryTech.Spec().Params(d.BatteryMWh, d.DoD)); err != nil {
					return nil, sched, fmt.Errorf("battery for %+v: %w", d, err)
				}
				cfg.Battery = &bat
			}
			t0 = time.Now()
			if _, err := scheduler.SimulateScratch(cfg, &scratch); err != nil {
				return nil, sched, fmt.Errorf("simulating %+v: %w", d, err)
			}
			sched[s] = append(sched[s], time.Since(t0))
		}
	}
	return supply, sched, nil
}

// paretoReplay times explorer.ParetoFrontier over the point sets Figure 14
// folds per site: each strategy's outcomes and their union. A strategy's
// set is the union of the shapes its space contains.
func paretoReplay(rep []replayed) float64 {
	bySite := map[string]*[numShapes][]explorer.Outcome{}
	seen := map[string]map[explorer.Design]bool{}
	for _, r := range rep {
		if bySite[r.site] == nil {
			bySite[r.site] = &[numShapes][]explorer.Outcome{}
			seen[r.site] = map[explorer.Design]bool{}
		}
		if seen[r.site][r.o.Design] {
			continue
		}
		seen[r.site][r.o.Design] = true
		s := shapeOf(r.o.Design)
		bySite[r.site][s] = append(bySite[r.site][s], r.o)
	}
	var calls []time.Duration
	for _, site := range fig14Sites {
		g := bySite[site]
		if g == nil {
			continue
		}
		sets := [][]explorer.Outcome{
			g[shapeBalance],
			append(append([]explorer.Outcome(nil), g[shapeBalance]...), g[shapeBattery]...),
			g[shapeCAS],
			append(append([]explorer.Outcome(nil), g[shapeCAS]...), g[shapeBoth]...),
		}
		union := append(append([]explorer.Outcome(nil), sets[1]...), sets[3]...)
		sets = append(sets, union)
		for _, set := range sets {
			const reps = 20
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				_ = explorer.ParetoFrontier(set)
			}
			calls = append(calls, time.Since(t0)/reps)
		}
	}
	return meanUS(calls)
}

// boundsReplay times CellModel.Bounds + explorer.Reachable per cell over
// every depth-2 cell of the adaptive plan's lattice for each swept site,
// tested against the site's published frontier.
func (b *bench) boundsReplay(first *pass) (float64, error) {
	sp := b.tr.begin("replay CellModel.Bounds + Reachable", 0)
	defer b.tr.end(sp)
	var total time.Duration
	cells := 0
	for i, id := range b.w.sweepSites {
		in := b.sweepIn[id]
		g, err := explorer.NewCellGrid(explorer.DefaultSpace(in), explorer.RenewablesBatteryCAS, in.AvgDemandMW(), adaptivePlan.CoarsePointsPerDim)
		if err != nil {
			return 0, fmt.Errorf("cell grid for %s: %w", id, err)
		}
		model := explorer.NewCellModel(in, g)
		ck, err := sweep.ReadCheckpoint(first.paths[i])
		if err != nil {
			return 0, err
		}
		opSlack, emSlack := extentSlack(ck.Frontier, adaptivePlan.Tolerance)
		depth := adaptivePlan.MaxRounds
		cs := g.CoarseCells()
		for r := 0; r < depth; r++ {
			cs = g.SubdivideAll(cs)
		}
		const reps = 20
		reachable := 0
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			for _, c := range cs {
				op, em := model.Bounds(c, depth)
				if explorer.Reachable(op, em, ck.Frontier, opSlack, emSlack) {
					reachable++
				}
			}
		}
		total += time.Since(t0)
		cells += reps * len(cs)
		fmt.Printf("  bounds %s: %d of %d depth-%d cells reachable from the published frontier\n", id, reachable/reps, len(cs), depth)
	}
	return us(total) / float64(cells), nil
}

// extentSlack turns a relative tolerance into absolute slacks against the
// frontier's extent on each axis, as adaptive pruning does.
func extentSlack(frontier []explorer.Outcome, tol float64) (float64, float64) {
	if len(frontier) == 0 {
		return 0, 0
	}
	opLo, opHi := math.Inf(1), math.Inf(-1)
	emLo, emHi := math.Inf(1), math.Inf(-1)
	for _, f := range frontier {
		opLo, opHi = math.Min(opLo, float64(f.Operational)), math.Max(opHi, float64(f.Operational))
		emLo, emHi = math.Min(emLo, float64(f.Embodied)), math.Max(emHi, float64(f.Embodied))
	}
	return tol * (opHi - opLo), tol * (emHi - emLo)
}

// serveReplay times Snapshot.Optimum and the HTTP handler in process over
// the workload's query mix, returning the mean Optimum time in ns and the
// handler's per-call times by route.
func serveReplay(ix *serve.Index, qs []query) (float64, map[string][]time.Duration) {
	var optTotal time.Duration
	optCalls := 0
	for _, q := range qs {
		if q.kind > kindOptimumBoth {
			continue
		}
		s, ok := ix.Snapshot(q.hash)
		if !ok {
			continue
		}
		sq := serve.Query{MaxCostUSD: q.maxUSD, MinCoveragePct: q.minCov}
		const reps = 2000
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			_, _ = s.Optimum(sq)
		}
		optTotal += time.Since(t0)
		optCalls += reps
	}
	h := serve.Handler(ix)
	handler := map[string][]time.Duration{}
	for r := 0; r < 10; r++ {
		for _, q := range qs {
			req := httptest.NewRequest("GET", q.path, nil)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			handler[routeOf(q.kind)] = append(handler[routeOf(q.kind)], time.Since(t0))
		}
	}
	return float64(optTotal) / float64(optCalls), handler
}

// printWorkloadLayers prints the layer rows that exist only where their
// layer runs: adaptive accounting and the coordinator's routes.
func (b *bench) printWorkloadLayers(first *pass) {
	t := b.tr
	fmt.Println("layers of this workload's sweep engine:")
	for i, id := range b.w.sweepSites {
		n, _ := fileSize(first.paths[i])
		fmt.Printf("  %-4s sweep.evals %6d   sweep.checkpoint_kb %9.1f", id, t.sweepSiteEvals0[id], float64(n)/1024)
		if a := first.results[i].Adaptive; a != nil {
			total := 0
			for _, e := range a.RoundEvals {
				total += e
			}
			fmt.Printf("   sweep.adaptive_evals %6d %v   sweep.survivor_frac %.4f (%d of %d cells)",
				total, a.RoundEvals, float64(a.Survivors)/float64(a.Cells), a.Survivors, a.Cells)
		}
		fmt.Println()
	}
	if b.w.engine != fleet {
		fmt.Println("  coordinator.*: not run by this workload")
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sweeps := float64(len(t.tails))
	for _, route := range sortedKeys(t.routes) {
		rs := t.routes[route]
		fmt.Printf("  coordinator.%s_ms %10.4f ms mean server time over %d requests\n", route, float64(rs.total)/1e6/float64(rs.count), rs.count)
	}
	fmt.Printf("  coordinator.requests %10.1f per sweep\n", float64(t.requests)/sweeps)
	fmt.Printf("  coordinator.upload_kb %10.1f KB per sweep\n", float64(t.uploadBytes)/1024/sweeps)
	fmt.Printf("  coordinator.tail_ms %10.1f ms median per sweep, tails %s s\n", float64(median(t.tails))/1e6, fmtDurations(t.tails))
}

// printReconciliation sets the replayed layer costs against the stages'
// median wall times. A stage's core time is its wall time × cores; the
// evaluations replayed single-threaded explain part of it, and the rest is
// the stage's own machinery.
func printReconciliation(fig, sw, figEval, swEval, clientP50, handlerP50 time.Duration) {
	cores := float64(runtime.GOMAXPROCS(0))
	line := func(stage string, wall, eval time.Duration, rest string) {
		core := wall.Seconds() * cores
		fmt.Printf("  %s: %.3f s wall × %.0f cores = %.3f core-s; replayed evaluations %.3f s (%.1f%%); unexplained %.3f core-s (%s)\n",
			stage, wall.Seconds(), cores, core, eval.Seconds(), 100*eval.Seconds()/core, core-eval.Seconds(), rest)
	}
	fmt.Println("reconciliation:")
	line("figures", fig, figEval, "search pool, SoC-trace copies, frontier folds, GC")
	line("sweep", sw, swEval, "engine, checkpoints, coordination, index load")
	fmt.Printf("  queries: client p50 %.1f us = handler p50 %.1f us in process + %.1f us HTTP, pipe and client\n",
		us(clientP50), us(handlerP50), us(clientP50-handlerP50))
}
