// Command perfbench is the repository's paper-scale benchmark. One run
// executes a named workload at full 8,760-hour resolution, in one process,
// through the program's public packages, checks every output against
// independent recomputation, and prints one JSON result line:
//
//	go run ./perfbench --workload paper --seed 1 --seconds 20 --trace 0
//
// Every workload runs the same three-stage pipeline in whole passes until
// --seconds have elapsed: regenerate the paper's Figures 14 and 15 for its
// sites, sweep and publish the production design space for its sites with
// its sweep engine, then serve what it published and answer a seeded query
// mix over an in-memory connection. The workloads differ in sites and sweep
// engine, so each puts its weight on different layers; perfbench/README.md
// explains the choice, the metrics and the reference figures.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same passes
// with spans and evaluation counters, then replays each layer's public
// functions over the workload's own inputs and prints the per-layer
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"carbonexplorer/internal/sweep"
)

// processStart is the set-up clock's origin: package variables of the main
// package initialize after every imported package, just before main runs.
var processStart = time.Now()

// engine selects how a workload sweeps its sites.
type engine int

const (
	// exhaustive is the single-process batch engine:
	// `optimize -site S -strategy all -checkpoint f`.
	exhaustive engine = iota
	// adaptive is the coarse-to-fine engine:
	// `optimize -mode adaptive -coarse 3 -max-rounds 2 -tolerance 0.01 -checkpoint f`.
	adaptive
	// fleet is a two-worker sweep against a lease coordinator on loopback:
	// `optimize -workers 2 -coordinate http://…`.
	fleet
)

// workload is one set of inputs to the pipeline.
type workload struct {
	// figureSites are Figure 15's sites; nil means all thirteen. Figure 14
	// always covers its three representative regions.
	figureSites []string
	// sweepSites are swept over explorer.DefaultSpace with
	// Renewables+Battery+CAS, one published checkpoint each.
	sweepSites []string
	engine     engine
}

// workloads are the benchmark's named inputs (see README.md for why each).
var workloads = map[string]workload{
	"paper":    {figureSites: nil, sweepSites: []string{"OR", "UT", "NC"}, engine: exhaustive},
	"adaptive": {figureSites: []string{"NE", "OR", "UT", "NC"}, sweepSites: []string{"NE", "OR", "UT", "NC"}, engine: adaptive},
	"fleet":    {figureSites: []string{"UT", "OR", "NC"}, sweepSites: []string{"UT", "OR", "NC"}, engine: fleet},
}

// adaptivePlan is the adaptive workload's refinement plan: small enough that
// a pass takes seconds at 8,760 h, large enough to run pruning and two
// dyadic rounds.
var adaptivePlan = sweep.Plan{Mode: sweep.ModeAdaptive, CoarsePointsPerDim: 3, MaxRounds: 2, Tolerance: 0.01}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper | adaptive | fleet")
	seed := flag.Int64("seed", 1, "seed for the query mix and the sampled output checks")
	seconds := flag.Int("seconds", 20, "how long to keep starting measured passes")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload paper|adaptive|fleet, --seconds ≥ 1, --trace 0|1 (got %q, %d, %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// peakRSSMB is the process's maximum resident set size so far, in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// cores is the parallelism the benchmark allows itself: the fleet's worker
// count never exceeds it.
func cores() int {
	n := runtime.GOMAXPROCS(0)
	if n > 2 {
		n = 2
	}
	return n
}
