package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// run executes one benchmark run: set-up, whole passes until the time is
// up, the output checks, and (traced) the per-layer replays.
func run(name string, w workload, seed int64, seconds time.Duration, traced bool) (res result, err error) {
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return result{}, fmt.Errorf("creating work directory: %w", err)
	}
	defer func() {
		if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
			err = fmt.Errorf("removing work directory: %w", rerr)
		}
	}()
	b := &bench{w: w, seed: seed, tmp: tmp}
	if traced {
		b.tr = newTracer()
	}
	defer func() {
		if cerr := b.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := b.setup(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(processStart)
	b.installHooks()

	ctx := context.Background()
	var passes []*pass
	var qs []query
	res.Correct = true
	deadline := time.Now().Add(seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		// A search or sweep that fails ends the run without a result: the
		// figures and the index the later stages read would be missing.
		p, dir, perr := b.runPass(ctx, n)
		if perr != nil {
			return res, fmt.Errorf("pass %d: %w", n, perr)
		}
		passes = append(passes, p)
		res.Attempted += b.searches() + len(w.sweepSites)
		if n == 0 {
			b.tr.firstPassDone(p.allocated)
			qs = buildQueries(p.index, seed)
		}
		settle()
		sp := b.tr.begin("queries", 0)
		lr := runQueries(ctx, b.servePipe.dial, qs, queryRounds, n == 0)
		b.tr.end(sp)
		p.queryWall, p.latencies, p.hashes, p.bodies = lr.wall, lr.latencies, lr.hashes, lr.bodies
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		fmt.Printf("pass %d: figures %.3f s, sweeps %s + load and first answer %.3f s = %.3f s, %d queries in %.3f s (p50 %.1f us, p95 %.1f us)\n",
			n, p.figures.Seconds(), fmtDurations(p.siteTimes), p.answer.Seconds(), p.sweep.Seconds(), len(p.latencies), p.queryWall.Seconds(),
			float64(quantile(p.latencies, 0.50))/1e3, float64(quantile(p.latencies, 0.95))/1e3)
		if n > 0 {
			// Later passes only have to agree with the first, whose outputs
			// the checks below verify in full.
			if cerr := samePass(passes[0], p); cerr != nil {
				fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", n, cerr)
				res.Correct = false
			}
			if rerr := os.RemoveAll(dir); rerr != nil {
				return res, fmt.Errorf("removing pass directory: %w", rerr)
			}
			p.fig14, p.fig15, p.results, p.index, p.bodies = nil, nil, nil, nil, nil
		}
	}

	// Peak RSS is read before the checks, whose reference evaluations
	// allocate far more than the pipeline does.
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	sp := b.tr.begin("checks", 0)
	for _, cerr := range b.check(passes[0], qs) {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", cerr)
		res.Correct = false
	}
	b.tr.end(sp)
	e2e := endToEnd(passes, setup, rss)
	res.Metrics = e2e
	fmt.Printf("%s: %d passes, %d operations attempted\n", name, len(passes), res.Attempted)
	var lat []time.Duration
	for _, p := range passes {
		lat = append(lat, p.latencies...)
	}
	fmt.Printf("query latency over %d samples:", len(lat))
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		fmt.Printf(" p%g %.1f us", 100*q, float64(quantile(lat, q))/1e3)
	}
	fmt.Println()
	printMetrics("end to end", e2e)
	if traced {
		layers, err := b.layers(passes, qs)
		if err != nil {
			return res, fmt.Errorf("per-layer replays: %w", err)
		}
		res.Metrics = layers
		if err := b.tr.write(filepath.Join(".bench_build", "perfbench-trace-"+name+".json")); err != nil {
			return res, err
		}
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics from the passes.
func endToEnd(passes []*pass, setup time.Duration, rssMB float64) map[string]metric {
	var figures, sweeps, lat []time.Duration
	var queryWall time.Duration
	for _, p := range passes {
		figures = append(figures, p.figures)
		sweeps = append(sweeps, p.sweep)
		queryWall += p.queryWall
		lat = append(lat, p.latencies...)
	}
	// The query metrics pool every pass: the rate is all queries over all
	// query-stage time, and the percentiles are over every latency. Over
	// ten runs (five of paper, five of adaptive) their spread from run to
	// run was 25–43% lower pooled than as the median of per-pass figures.
	return map[string]metric{
		"setup_s":       {setup.Seconds(), "s"},
		"figures_s":     {median(figures).Seconds(), "s"},
		"sweep_s":       {median(sweeps).Seconds(), "s"},
		"queries_per_s": {float64(len(lat)) / queryWall.Seconds(), "1/s"},
		"query_p50_us":  {float64(quantile(lat, 0.50)) / 1e3, "us"},
		"query_p95_us":  {float64(quantile(lat, 0.95)) / 1e3, "us"},
		"peak_rss_mb":   {rssMB, "MB"},
	}
}

// fmtDurations renders durations in seconds, e.g. "[0.812 1.204]".
func fmtDurations(ds []time.Duration) string {
	s := "["
	for i, d := range ds {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", d.Seconds())
	}
	return s + "]"
}

// sortedKeys returns the map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printMetrics prints metrics one per line, sorted by name.
func printMetrics(title string, ms map[string]metric) {
	fmt.Printf("%s:\n", title)
	for _, k := range sortedKeys(ms) {
		fmt.Printf("  %-32s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
