// Command carbonexplorer is the Carbon Explorer CLI. It evaluates and
// optimizes carbon-aware datacenter designs for the paper's thirteen sites.
//
// Usage:
//
//	carbonexplorer sites
//	carbonexplorer coverage -site UT -wind 239 -solar 694
//	carbonexplorer evaluate -site UT -wind 239 -solar 694 -battery-hours 4 -flex 0.4 -extra-capacity 0.25
//	carbonexplorer optimize -site UT -strategy all
//	carbonexplorer optimize -site UT -strategy all -checkpoint sweep.json -resume
//	carbonexplorer optimize -site UT -strategy all -shard 1/3 -checkpoint shard1.json
//	carbonexplorer optimize -site UT -strategy all -mode adaptive -tolerance 0.02
//	carbonexplorer optimize -site UT -strategy all -workers 4
//	carbonexplorer optimize -site UT -strategy all -workers 4 -coordinate leases/
//	carbonexplorer coordinate -listen :8080 -state coordinator-state
//	carbonexplorer optimize -site UT -strategy all -workers 4 -coordinate http://host:8080
//	carbonexplorer merge -out merged.json shard1.json shard2.json shard3.json
//	carbonexplorer serve -listen :8090 merged.json
//	carbonexplorer serve -listen :8090 -state coordinator-state
//	carbonexplorer figure 8
//
// optimize runs as a streaming sweep (internal/sweep): memory is bounded by
// -batch regardless of grid density, failed designs are retried (-retries,
// default once), and with -checkpoint an interrupted sweep — Ctrl-C, a
// timeout, or a crash — persists its progress and continues with -resume.
//
// -mode adaptive replaces the exhaustive grid walk with iterative
// refinement: a coarse lattice (-coarse points per free axis) is evaluated,
// cells that provably cannot reach the Pareto frontier within -tolerance
// are pruned, and the survivors are subdivided for the next round, up to
// -max-rounds. The refinement is deterministic, so it composes with
// -checkpoint/-resume, -shard, -workers, and -coordinate exactly like an
// exhaustive sweep and converges to byte-identical checkpoints on any
// worker topology.
//
// -shard i/N restricts a run to its contiguous 1/N slice of the design
// enumeration, so N workers on separate machines can split one sweep with no
// coordination beyond agreeing on N. Each shard writes its own checkpoint;
// merge folds any set of them — complete or partial — into one checkpoint
// holding the combined optimum and Pareto frontier, which optimize -resume
// accepts to finish or re-split the remaining designs.
//
// -workers N replaces the static partition with a work-stealing coordinator
// (internal/coordinator): the space splits into many small leases (-leases)
// claimed dynamically, so a slow worker no longer gates the sweep. Adding
// -coordinate <dir> moves coordination into atomic lease files under <dir>:
// several independently started processes share one sweep, a killed
// worker's lease is stolen after its heartbeat expires and its checkpoint
// is resumed by the thief, and re-invoking the same command after a crash
// or Ctrl-C continues where the fleet left off. See docs/OPERATIONS.md for
// the operator's guide.
//
// When machines share no filesystem, `coordinate -listen :8080` serves the
// same lease protocol over HTTP from a local state directory, and
// -coordinate accepts the coordinator's URL (http://host:8080) instead of a
// directory — the mode is auto-detected from the prefix. The coordinator's
// state survives its own restarts; workers ride through a short outage via
// retries with backoff.
//
// serve is the read side of the system: it loads finished (or in-progress)
// checkpoints — per-shard, merged, or a coordinator's state directory via
// -state — into an immutable in-memory index and answers
// optimum-under-constraints, Pareto-frontier, comparison, and chart queries
// over HTTP at in-memory speed (internal/serve). See docs/SERVING.md for
// the API reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"carbonexplorer/internal/coordinator"
	"carbonexplorer/internal/experiments"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/serve"
	"carbonexplorer/internal/sweep"
)

func main() {
	// Ctrl-C cancels the context instead of killing the process, so
	// long-running sweeps can print partial results before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "carbonexplorer:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "sites":
		return cmdSites()
	case "coverage":
		return cmdCoverage(args[1:])
	case "evaluate":
		return cmdEvaluate(args[1:])
	case "optimize":
		return cmdOptimize(ctx, args[1:])
	case "coordinate":
		return cmdCoordinate(ctx, args[1:])
	case "merge":
		return cmdMerge(args[1:])
	case "serve":
		return cmdServe(ctx, args[1:])
	case "figure":
		return cmdFigure(args[1:])
	case "study":
		return cmdStudy(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// flagRangeError builds a friendly parse-time error naming the offending
// flag, instead of letting an out-of-range value fail deep inside the
// evaluation with no flag context.
func flagRangeError(name string, v float64, want string) error {
	return fmt.Errorf("flag -%s: value %v out of range (want %s)", name, v, want)
}

// checkNonNegative validates a set of flags that must be finite and >= 0.
func checkNonNegative(flags map[string]float64) error {
	for name, v := range flags {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return flagRangeError(name, v, ">= 0")
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: carbonexplorer <subcommand> [flags]

subcommands:
  sites        list the thirteen datacenter sites (Table 1)
  coverage     24/7 renewable coverage for a wind/solar investment
  evaluate     full carbon evaluation of one design
  optimize     streaming search for the carbon-optimal design
               (-checkpoint/-resume persist progress; -batch bounds memory;
               -shard i/N sweeps one slice of the space per worker;
               -mode adaptive refines a coarse lattice toward the frontier
               instead of walking the full grid — see -tolerance/-max-rounds/-coarse)
  coordinate   serve the lease coordinator over HTTP (-listen :8080) so
               optimize -coordinate http://host:8080 workers on any machine
               share one sweep; state survives coordinator restarts
  merge        fold shard checkpoints into one (-out merged.json shard1.json ...);
               the merged checkpoint resumes with optimize -resume
  serve        load checkpoints into an immutable in-memory index and answer
               optimum/frontier/compare/chart queries over HTTP
               (-listen :8090; -state <dir> serves a coordinator's merged
               checkpoint; see docs/SERVING.md)
  figure       regenerate a paper figure/table (1,3,4,5,6,7,8,9,10,11,12,14,15,16)
  study        run an analysis study: dod | cas-gains | total-reduction |
               netzero | forecast | battery-tech | tiered | geo | dispatch |
               jobsim | optimizer | cost | robustness | sensitivity |
               fwr | dr-signals | horizon | atlas | pue | ensemble | marginal | curtailment | ablation`)
}

func cmdSites() error {
	fmt.Print(experiments.Table01())
	return nil
}

func siteInputs(id string) (*explorer.Inputs, error) {
	site, err := grid.SiteByID(id)
	if err != nil {
		return nil, err
	}
	return explorer.NewInputs(site)
}

// Every subcommand declares its flags in a single <cmd>Flags constructor,
// shared between the run path and commandFlagSets — so the flag sets that
// tests (and the docs-drift check) enumerate are, by construction, exactly
// the flags the binary accepts.

func coverageFlags(fs *flag.FlagSet) (siteID *string, wind, solar *float64) {
	siteID = fs.String("site", "UT", "site ID (see 'sites')")
	wind = fs.Float64("wind", 0, "wind investment, MW")
	solar = fs.Float64("solar", 0, "solar investment, MW")
	return
}

func cmdCoverage(args []string) error {
	fs := flag.NewFlagSet("coverage", flag.ContinueOnError)
	siteID, wind, solar := coverageFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkNonNegative(map[string]float64{"wind": *wind, "solar": *solar}); err != nil {
		return err
	}
	in, err := siteInputs(*siteID)
	if err != nil {
		return err
	}
	cov, err := in.CoverageFor(*wind, *solar)
	if err != nil {
		return err
	}
	fmt.Printf("site %s: %.0f MW wind + %.0f MW solar -> %.2f%% 24/7 coverage\n",
		*siteID, *wind, *solar, cov)
	return nil
}

func evaluateFlags(fs *flag.FlagSet) (siteID *string, wind, solar, batteryHours, dod, flex, extraCap *float64) {
	siteID = fs.String("site", "UT", "site ID")
	wind = fs.Float64("wind", 0, "wind investment, MW")
	solar = fs.Float64("solar", 0, "solar investment, MW")
	batteryHours = fs.Float64("battery-hours", 0, "battery capacity in hours of average compute")
	dod = fs.Float64("dod", 1.0, "battery depth of discharge (0,1]")
	flex = fs.Float64("flex", 0, "flexible workload ratio [0,1]")
	extraCap = fs.Float64("extra-capacity", 0, "extra server capacity fraction of peak")
	return
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ContinueOnError)
	siteID, wind, solar, batteryHours, dod, flex, extraCap := evaluateFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkNonNegative(map[string]float64{
		"wind": *wind, "solar": *solar,
		"battery-hours": *batteryHours, "extra-capacity": *extraCap,
	}); err != nil {
		return err
	}
	if *flex < 0 || *flex > 1 || math.IsNaN(*flex) {
		return flagRangeError("flex", *flex, "[0, 1]")
	}
	if *batteryHours > 0 && (*dod <= 0 || *dod > 1 || math.IsNaN(*dod)) {
		return flagRangeError("dod", *dod, "(0, 1] when -battery-hours > 0")
	}
	in, err := siteInputs(*siteID)
	if err != nil {
		return err
	}
	d := explorer.Design{
		WindMW: *wind, SolarMW: *solar,
		BatteryMWh: *batteryHours * in.AvgDemandMW(), DoD: *dod,
		FlexibleRatio: *flex, ExtraCapacityFrac: *extraCap,
	}
	if d.BatteryMWh == 0 {
		d.DoD = 0
	}
	o, err := in.Evaluate(d)
	if err != nil {
		return err
	}
	printOutcome(*siteID, o)
	return nil
}

func printOutcome(siteID string, o explorer.Outcome) {
	fmt.Printf("site %s design: wind %.0f MW, solar %.0f MW, battery %.0f MWh (DoD %.0f%%), flex %.0f%%, extra capacity %.0f%%\n",
		siteID, o.Design.WindMW, o.Design.SolarMW, o.Design.BatteryMWh, o.Design.DoD*100,
		o.Design.FlexibleRatio*100, o.Design.ExtraCapacityFrac*100)
	fmt.Printf("  24/7 coverage:        %.2f%%\n", o.CoveragePct)
	fmt.Printf("  operational carbon:   %s/yr (%.0f MWh grid energy)\n", o.Operational, o.GridEnergyMWh)
	fmt.Printf("  embodied carbon:      %s/yr (renewables %s, battery %s, servers %s)\n",
		o.Embodied, o.EmbodiedRenewables, o.EmbodiedBattery, o.EmbodiedServers)
	fmt.Printf("  total carbon:         %s/yr\n", o.Total())
	if o.Design.BatteryMWh > 0 {
		fmt.Printf("  battery cycles/day:   %.2f\n", o.BatteryCyclesPerDay)
	}
}

// adaptiveFlagValues collects the optimize flags that select and tune
// adaptive sweep mode, so the already-long optimizeFlags tuple doesn't grow
// by four more positional returns.
type adaptiveFlagValues struct {
	mode      *string
	tolerance *float64
	maxRounds *int
	coarse    *int
}

// plan folds the flag values into a sweep.Plan and validates them at parse
// time: adaptive knobs without -mode adaptive are an error, not a silent
// no-op, and the plan's own validation (tolerance range, lattice size)
// rejects nonsense before any evaluation starts.
func (a adaptiveFlagValues) plan(shard sweep.Shard) (sweep.Plan, error) {
	mode := sweep.ModeExhaustive
	if *a.mode != "" {
		var err error
		mode, err = sweep.ParseMode(*a.mode)
		if err != nil {
			return sweep.Plan{}, fmt.Errorf("flag -mode: %w", err)
		}
	}
	p := sweep.Plan{
		Mode:               mode,
		Shard:              shard,
		Tolerance:          *a.tolerance,
		MaxRounds:          *a.maxRounds,
		CoarsePointsPerDim: *a.coarse,
	}
	if mode != sweep.ModeAdaptive {
		if *a.tolerance != 0 {
			return sweep.Plan{}, fmt.Errorf("flag -tolerance requires -mode adaptive")
		}
		if *a.maxRounds != 0 {
			return sweep.Plan{}, fmt.Errorf("flag -max-rounds requires -mode adaptive")
		}
		if *a.coarse != 0 {
			return sweep.Plan{}, fmt.Errorf("flag -coarse requires -mode adaptive")
		}
	}
	if _, err := p.Normalized(); err != nil {
		return sweep.Plan{}, err
	}
	return p, nil
}

// hint renders the adaptive flags as the user set them, for the printed
// resume command — an adaptive checkpoint can only be resumed in adaptive
// mode, so a hint that drops these flags would fail with a mode mismatch.
func (a adaptiveFlagValues) hint() string {
	if *a.mode == "" {
		return ""
	}
	s := " -mode " + *a.mode
	if *a.tolerance != 0 {
		s += fmt.Sprintf(" -tolerance %g", *a.tolerance)
	}
	if *a.maxRounds != 0 {
		s += fmt.Sprintf(" -max-rounds %d", *a.maxRounds)
	}
	if *a.coarse != 0 {
		s += fmt.Sprintf(" -coarse %d", *a.coarse)
	}
	return s
}

func optimizeFlags(fs *flag.FlagSet) (siteID, strategyName *string, timeout *time.Duration, checkpoint *string, resume *bool, batch, retries *int, shardSpec *string, workers *int, coordinate *string, leases *int, heartbeat, leaseTTL *time.Duration, adapt adaptiveFlagValues) {
	siteID = fs.String("site", "UT", "site ID")
	strategyName = fs.String("strategy", "all", "renewables | battery | cas | all")
	timeout = fs.Duration("timeout", 0, "abort the sweep after this duration (0 = no limit), printing partial results")
	checkpoint = fs.String("checkpoint", "", "persist sweep progress to this file (JSON, versioned); an interrupted sweep can continue with -resume")
	resume = fs.Bool("resume", false, "resume the sweep recorded in -checkpoint instead of starting over")
	batch = fs.Int("batch", 0, "designs evaluated per batch — the peak number of outcomes held in memory (0 = default)")
	retries = fs.Int("retries", 1, "times a failed design is re-evaluated before being excluded (0 = a single failure is final)")
	shardSpec = fs.String("shard", "", "evaluate only slice i/N of the design space (e.g. 2/3); shard checkpoints fold together with 'merge'")
	workers = fs.Int("workers", 0, "coordinate a work-stealing sweep with N workers instead of the single-process engine (0 = single-process)")
	coordinate = fs.String("coordinate", "", "multi-process coordination: a lease directory shared by all workers, or a coordinator URL (http://host:8080, see the 'coordinate' subcommand); killed workers' leases are stolen and resumed either way")
	leases = fs.Int("leases", 0, "leases the coordinated space is split into (0 = 8 per worker); more leases = finer stealing granularity")
	heartbeat = fs.Duration("heartbeat", 0, "how often a coordinated worker refreshes its claimed lease's liveness and, when idle, re-checks leases other processes hold (0 = 1s default)")
	leaseTTL = fs.Duration("lease-ttl", 0, "how stale a lease's heartbeat must be before another worker steals it (0 = 10× heartbeat); must be at least 3× the heartbeat")
	adapt.mode = fs.String("mode", "", "sweep mode: exhaustive (default) evaluates every design; adaptive starts from a coarse lattice and subdivides only cells that can still reach the Pareto frontier")
	adapt.tolerance = fs.Float64("tolerance", 0, "adaptive convergence tolerance as a fraction of the frontier extent (0 = 0.01 default); requires -mode adaptive")
	adapt.maxRounds = fs.Int("max-rounds", 0, "adaptive subdivision round budget (0 = 3 default); requires -mode adaptive")
	adapt.coarse = fs.Int("coarse", 0, "points per free axis of the adaptive coarse lattice (0 = 5 default, minimum 2); requires -mode adaptive")
	return
}

func cmdOptimize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	siteID, strategyName, timeout, checkpoint, resume, batch, retries, shardSpec, workers, coordinate, leases, heartbeat, leaseTTL, adapt := optimizeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout < 0 {
		return fmt.Errorf("flag -timeout: negative duration %v", *timeout)
	}
	if *batch < 0 {
		return fmt.Errorf("flag -batch: negative batch size %d", *batch)
	}
	if *retries < 0 {
		return fmt.Errorf("flag -retries: negative retry count %d", *retries)
	}
	if *workers < 0 {
		return fmt.Errorf("flag -workers: negative worker count %d", *workers)
	}
	if *leases < 0 {
		return fmt.Errorf("flag -leases: negative lease count %d", *leases)
	}
	coordinated := *workers > 0 || *coordinate != ""
	// A -coordinate value with an http(s):// prefix is a network
	// coordinator's URL; anything else is a shared lease directory.
	endpoint := ""
	leaseDir := *coordinate
	if strings.HasPrefix(*coordinate, "http://") || strings.HasPrefix(*coordinate, "https://") {
		endpoint, leaseDir = *coordinate, ""
	}
	if *leases > 0 && !coordinated {
		return fmt.Errorf("flag -leases requires -workers or -coordinate")
	}
	if *heartbeat < 0 {
		return fmt.Errorf("flag -heartbeat: negative duration %v", *heartbeat)
	}
	if *leaseTTL < 0 {
		return fmt.Errorf("flag -lease-ttl: negative duration %v", *leaseTTL)
	}
	if (*heartbeat > 0 || *leaseTTL > 0) && !coordinated {
		return fmt.Errorf("flags -heartbeat/-lease-ttl require -workers or -coordinate")
	}
	// Catch a liveness config that would steal leases from live workers at
	// parse time, instead of letting a fleet thrash at runtime. The same
	// floor is enforced by the engine and by the network coordinator.
	hb := *heartbeat
	if hb == 0 {
		hb = time.Second
	}
	if ttl := *leaseTTL; ttl > 0 && ttl < coordinator.HeartbeatSafetyFactor*hb {
		return fmt.Errorf("flag -lease-ttl: %v is less than %d× the %v heartbeat; live workers' leases would be stolen on ordinary scheduling jitter",
			ttl, coordinator.HeartbeatSafetyFactor, hb)
	}
	shard, err := sweep.ParseShard(*shardSpec)
	if err != nil {
		return fmt.Errorf("flag -shard: %w", err)
	}
	plan, err := adapt.plan(shard)
	if err != nil {
		return err
	}
	if coordinated {
		if !shard.IsZero() {
			return fmt.Errorf("flag -shard cannot be combined with -workers/-coordinate: the coordinator partitions the space itself")
		}
		if *resume {
			return fmt.Errorf("flag -resume cannot be combined with -workers/-coordinate: coordination resumes its lease checkpoints automatically")
		}
		if *checkpoint != "" && *coordinate == "" {
			return fmt.Errorf("flag -checkpoint with -workers requires -coordinate (in-process coordination keeps no files; the merged checkpoint lives next to the leases)")
		}
	} else {
		if *resume && *checkpoint == "" {
			return fmt.Errorf("flag -resume requires -checkpoint")
		}
		if !shard.IsZero() && *checkpoint == "" {
			return fmt.Errorf("flag -shard requires -checkpoint (a shard's result only exists as its checkpoint file)")
		}
	}
	var strategy explorer.Strategy
	switch strings.ToLower(*strategyName) {
	case "renewables":
		strategy = explorer.RenewablesOnly
	case "battery":
		strategy = explorer.RenewablesBattery
	case "cas":
		strategy = explorer.RenewablesCAS
	case "all":
		strategy = explorer.RenewablesBatteryCAS
	default:
		return fmt.Errorf("unknown strategy %q", *strategyName)
	}
	in, err := siteInputs(*siteID)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sweepRetries := *retries
	if sweepRetries == 0 {
		sweepRetries = sweep.NoRetries
	}
	ckptPath := *checkpoint
	if leaseDir != "" && ckptPath == "" {
		ckptPath = coordinator.MergedCheckpointPath(leaseDir)
	}
	var res sweep.Result
	if coordinated {
		res, err = coordinator.Run(ctx, in, explorer.DefaultSpace(in), strategy, coordinator.Options{
			Workers:    *workers,
			Leases:     *leases,
			LeaseDir:   leaseDir,
			Endpoint:   endpoint,
			Checkpoint: *checkpoint,
			BatchSize:  *batch,
			Retries:    sweepRetries,
			Heartbeat:  *heartbeat,
			Expiry:     *leaseTTL,
			Plan:       plan,
		})
	} else {
		res, err = sweep.Run(ctx, in, explorer.DefaultSpace(in), strategy, sweep.Options{
			BatchSize: *batch,
			Retries:   sweepRetries,
			Plan:      plan,
			Checkpoint: sweep.CheckpointOptions{
				Path:   *checkpoint,
				Resume: *resume,
			},
		})
	}
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !interrupted {
		return err
	}
	if interrupted && res.Report.Evaluated == 0 {
		return fmt.Errorf("sweep interrupted before any design finished: %w", err)
	}
	if res.Resumed {
		source := ckptPath
		if source == "" && endpoint != "" {
			source = endpoint
		}
		fmt.Printf("resumed from %s: %d designs restored\n", source, res.Report.Restored)
	}
	if !shard.IsZero() {
		total := res.Report.Evaluated + len(res.Report.Failures) + res.Report.Skipped + res.Report.OutOfShard
		fmt.Printf("shard %s of the %d-design space: %d designs belong to other shards\n",
			shard, total, res.Report.OutOfShard)
	}
	if interrupted {
		fmt.Printf("sweep interrupted (%v) — partial results over %d evaluated designs (%d skipped)\n",
			err, res.Report.Evaluated, res.Report.Skipped)
		switch {
		case endpoint != "":
			if ckptPath != "" {
				fmt.Printf("partial merged checkpoint saved to %s; ", ckptPath)
			}
			fmt.Printf("lease progress lives on the coordinator at %s; re-invoke the same command to continue\n", endpoint)
		case leaseDir != "":
			fmt.Printf("progress saved to %s; re-invoke the same command to continue\n", ckptPath)
		case *checkpoint != "":
			fmt.Printf("progress saved to %s; continue with: optimize -site %s -strategy %s%s -checkpoint %s -resume\n",
				*checkpoint, *siteID, *strategyName, adapt.hint(), *checkpoint)
		}
	}
	fmt.Printf("strategy %s: %d designs evaluated, %d on the Pareto frontier\n",
		strategy, res.Report.Evaluated, len(res.Frontier))
	if a := res.Adaptive; a != nil {
		fmt.Printf("adaptive refinement: %d rounds (evals per round %v), tolerance %g",
			a.Round+1, a.RoundEvals, a.Tolerance)
		if a.Converged {
			fmt.Println(", converged")
		} else {
			fmt.Println(", not yet converged")
		}
		if !a.Converged && !interrupted && !shard.IsZero() {
			fmt.Printf("shard %s finished its slice of round %d; fold the shard checkpoints with 'merge', copy the merged file over each shard checkpoint, and re-invoke with -resume to start round %d\n",
				shard, a.Round, a.Round+1)
		}
	}
	for _, wp := range res.Workers {
		fmt.Printf("worker %s: %d leases (%d stolen), %d designs evaluated, %d failed\n",
			wp.Worker, wp.Leases, wp.Stolen, wp.Evaluated, wp.Failed)
	}
	if res.Report.Retried > 0 {
		fmt.Printf("%d designs retried after a transient failure, %d recovered\n",
			res.Report.Retried, res.Report.Recovered)
	}
	if n := len(res.Report.Failures); n > 0 {
		fmt.Printf("%d designs failed and were excluded; first: %v\n", n, res.Report.Failures[0])
	}
	if shard.IsZero() {
		fmt.Println("carbon-optimal design:")
	} else {
		fmt.Println("carbon-optimal design over this shard's fold:")
	}
	printOutcome(*siteID, res.Optimal)
	if interrupted {
		return fmt.Errorf("sweep incomplete: %w", err)
	}
	if !shard.IsZero() {
		fmt.Printf("shard complete; fold shard checkpoints with: merge -out merged.json %s <other shards>\n", *checkpoint)
	}
	return nil
}

// Timeouts of the coordinate and serve HTTP servers. Only the request
// header and the idle keep-alive are bounded, so a client that stalls or
// never finishes its request line cannot hold a connection open. Whole-request
// read and response write deadlines stay unset: checkpoint uploads and
// `GET /v1/checkpoint` bodies grow with the sweep, and a fixed deadline would
// cut a large sweep's transfers off.
const (
	serverReadHeaderTimeout = 10 * time.Second
	serverIdleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the server the coordinate and serve subcommands
// listen with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serverReadHeaderTimeout,
		IdleTimeout:       serverIdleTimeout,
	}
}

// cmdCoordinate serves the lease coordinator over HTTP. Workers on any
// machine join with `optimize -coordinate http://host:port`; all state
// persists in the -state directory, so killing and restarting the
// coordinator (same flags, same directory) resumes the fleet.
func coordinateFlags(fs *flag.FlagSet) (listen, state *string, ttl *time.Duration, leases *int, progressEvery *time.Duration) {
	listen = fs.String("listen", "", "address to serve the coordinator API on, e.g. :8080 (required)")
	state = fs.String("state", "coordinator-state", "state directory: lease records, per-lease checkpoints, and the merged checkpoint live here and survive restarts")
	ttl = fs.Duration("lease-ttl", 10*time.Second, "how stale a worker's heartbeat must be before its lease is stolen; must be at least 3× the workers' heartbeat interval")
	leases = fs.Int("leases", 0, "pin the lease count (0 = the first registering worker's proposal wins)")
	progressEvery = fs.Duration("progress", 10*time.Second, "how often to print fleet progress (0 = never)")
	return
}

func cmdCoordinate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ContinueOnError)
	listen, state, ttl, leases, progressEvery := coordinateFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" {
		return fmt.Errorf("flag -listen: address is required")
	}
	if *ttl <= 0 {
		return fmt.Errorf("flag -lease-ttl: must be positive, got %v", *ttl)
	}
	if *leases < 0 {
		return fmt.Errorf("flag -leases: negative lease count %d", *leases)
	}
	if *progressEvery < 0 {
		return fmt.Errorf("flag -progress: negative duration %v", *progressEvery)
	}
	svc, err := coordinator.NewService(*state, coordinator.ServiceOptions{Expiry: *ttl, Leases: *leases})
	if err != nil {
		return err
	}
	srv := newHTTPServer(*listen, svc.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("coordinator listening on %s (state %s, lease TTL %v)\n", *listen, *state, *ttl)
	var progress <-chan time.Time
	if *progressEvery > 0 {
		tick := time.NewTicker(*progressEvery)
		defer tick.Stop()
		progress = tick.C
	}
	for {
		select {
		case <-ctx.Done():
			sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				return fmt.Errorf("shutting down coordinator: %w", err)
			}
			<-errc
			fmt.Printf("coordinator stopped; state kept in %s — restart with the same flags to resume the fleet\n", *state)
			return nil
		case err := <-errc:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return fmt.Errorf("coordinator server: %w", err)
		case <-progress:
			st := svc.Status()
			if !st.Registered {
				fmt.Println("no sweep registered yet; waiting for the first worker")
				continue
			}
			fmt.Printf("site %s sweep, %d designs: %d/%d leases done, %d running, %d expired, %d pending\n",
				st.Site, st.Designs, st.Done, st.LeaseCount, st.Running, st.Expired, st.Pending)
		}
	}
}

// cmdMerge folds shard checkpoint files into one merged checkpoint that
// `optimize -resume` accepts, printing per-shard and merged progress.
func mergeFlags(fs *flag.FlagSet) (out *string) {
	out = fs.String("out", "", "path for the merged checkpoint (required)")
	return
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	out := mergeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("flag -out: merged checkpoint path is required")
	}
	srcs := fs.Args()
	if len(srcs) == 0 {
		return fmt.Errorf("usage: carbonexplorer merge -out merged.json shard1.json [shard2.json ...]")
	}
	rep, err := sweep.MergeCheckpoints(*out, srcs...)
	if err != nil {
		return err
	}
	for _, p := range rep.Inputs {
		label := p.Shard.String()
		if label == "" {
			label = "whole space"
		}
		size := p.End - p.Start
		fmt.Printf("  %s (shard %s): %d/%d done", p.Path, label, p.Done, size)
		if p.FailedOnce > 0 || p.FailedPerm > 0 {
			fmt.Printf(", %d awaiting retry, %d failed permanently", p.FailedOnce, p.FailedPerm)
		}
		if p.Pending > 0 {
			fmt.Printf(", %d pending", p.Pending)
		}
		fmt.Println()
	}
	fmt.Printf("merged %d checkpoints -> %s: %d/%d designs done", len(rep.Inputs), *out, rep.Done, rep.Total)
	if rep.FailedOnce > 0 || rep.FailedPerm > 0 {
		fmt.Printf(", %d awaiting retry, %d failed permanently", rep.FailedOnce, rep.FailedPerm)
	}
	if rep.Pending > 0 {
		fmt.Printf(", %d pending", rep.Pending)
	}
	fmt.Println()
	if !rep.Complete() {
		fmt.Printf("sweep incomplete; finish it with: optimize -checkpoint %s -resume (matching -site/-strategy)\n", *out)
	}
	return nil
}

func serveFlags(fs *flag.FlagSet) (listen, state *string) {
	listen = fs.String("listen", "", "address to serve the query API on, e.g. :8090 (required)")
	state = fs.String("state", "", "coordination state (or lease) directory whose merged checkpoint to serve, in addition to any positional checkpoint files")
	return
}

// cmdServe loads finished sweep checkpoints into an immutable in-memory
// index (internal/serve) and answers read-only queries over HTTP until
// interrupted. Positional arguments are checkpoint files; -state points at
// a coordinator's directory and serves the merged checkpoint a
// `coordinate`-run fleet produced there.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen, state := serveFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" {
		return fmt.Errorf("flag -listen: address is required")
	}
	paths := fs.Args()
	if *state != "" {
		paths = append(paths, coordinator.MergedCheckpointPath(*state))
	}
	if len(paths) == 0 {
		return fmt.Errorf("usage: carbonexplorer serve -listen :8090 [-state coordinator-state] [checkpoint.json ...]")
	}
	ix, err := serve.Load(paths, serve.Options{})
	if err != nil {
		return err
	}
	for _, s := range ix.Snapshots() {
		status := "complete"
		if !s.Complete() {
			status = fmt.Sprintf("incomplete, %d/%d designs done", s.Done, s.Designs)
		}
		fmt.Printf("serving %s: site %s, strategy %s, %d frontier designs (%s)\n",
			s.SpaceHash, s.Site, s.Strategy, len(s.Frontier()), status)
	}
	srv := newHTTPServer(*listen, serve.Handler(ix))
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("query API listening on %s (%d sweeps); endpoints are documented in docs/SERVING.md\n",
		*listen, ix.Len())
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutting down query API: %w", err)
		}
		<-errc
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("query API server: %w", err)
	}
}

// commandFlagSets builds a fresh flag set per subcommand through the same
// constructors the run path uses, so what it reports cannot drift from what
// the binary accepts. Flagless subcommands map to an empty set. Tests use
// this to hold documentation to the real flag surface.
func commandFlagSets() map[string]*flag.FlagSet {
	registrars := map[string]func(*flag.FlagSet){
		"sites":      func(*flag.FlagSet) {},
		"coverage":   func(fs *flag.FlagSet) { coverageFlags(fs) },
		"evaluate":   func(fs *flag.FlagSet) { evaluateFlags(fs) },
		"optimize":   func(fs *flag.FlagSet) { optimizeFlags(fs) },
		"coordinate": func(fs *flag.FlagSet) { coordinateFlags(fs) },
		"merge":      func(fs *flag.FlagSet) { mergeFlags(fs) },
		"serve":      func(fs *flag.FlagSet) { serveFlags(fs) },
		"figure":     func(*flag.FlagSet) {},
		"study":      func(fs *flag.FlagSet) { studyFlags(fs) },
	}
	out := make(map[string]*flag.FlagSet, len(registrars))
	for name, register := range registrars {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		register(fs)
		out[name] = fs
	}
	return out
}

func cmdFigure(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: carbonexplorer figure <id>")
	}
	switch args[0] {
	case "1":
		if err := printTable(experiments.Figure01()); err != nil {
			return err
		}
		return printChart(experiments.Figure01Chart())
	case "3":
		return printTable(experiments.Figure03())
	case "4":
		return printTable(experiments.Figure04())
	case "5":
		t, regions, err := experiments.Figure05()
		if err != nil {
			return err
		}
		fmt.Print(t)
		for _, r := range regions {
			fmt.Printf("\n%s daily-total histogram:\n%s", r.BA, r.DailyHistogram.Render(40))
		}
		return nil
	case "6":
		if err := printTable(experiments.Figure06()); err != nil {
			return err
		}
		return printChart(experiments.Figure06Chart())
	case "7":
		return printTable(experiments.Figure07())
	case "8":
		return printTable(experiments.Figure08())
	case "9":
		return printTable(experiments.Figure09())
	case "10":
		return printTable(experiments.Figure10(), nil)
	case "11":
		if err := printTable(experiments.Figure11()); err != nil {
			return err
		}
		return printChart(experiments.Figure11Chart())
	case "12":
		return printTable(experiments.Figure12())
	case "14":
		t, _, err := experiments.Figure14()
		return printTable(t, err)
	case "15":
		t, _, err := experiments.Figure15(nil)
		return printTable(t, err)
	case "16":
		t, hist, err := experiments.Figure16()
		if err != nil {
			return err
		}
		fmt.Print(t)
		fmt.Printf("\ncharge-level histogram:\n%s", hist.Render(40))
		return nil
	default:
		return fmt.Errorf("unknown figure %q (supported: 1,3,4,5,6,7,8,9,10,11,12,14,15,16)", args[0])
	}
}

func studyFlags(fs *flag.FlagSet) (siteID *string, ratio *float64) {
	siteID = fs.String("site", "UT", "site ID for single-site studies")
	ratio = fs.Float64("migratable", 0.3, "migratable load ratio for the geo study")
	return
}

func cmdStudy(args []string) error {
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	siteID, ratio := studyFlags(fs)
	if len(args) == 0 {
		return fmt.Errorf("usage: carbonexplorer study <name> [flags]")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch name {
	case "dod":
		return printTable(experiments.DoDStudy(nil))
	case "cas-gains":
		return printTable(experiments.CASGains(nil))
	case "total-reduction":
		return printTable(experiments.TotalReduction(nil))
	case "netzero":
		return printTable(experiments.NetZeroStudy(nil))
	case "forecast":
		return printTable(experiments.ForecastStudy(*siteID))
	case "battery-tech":
		return printTable(experiments.BatteryTechStudy(*siteID))
	case "tiered":
		return printTable(experiments.TieredSchedulingStudy(*siteID))
	case "geo":
		return printTable(experiments.GeoBalanceStudy(*ratio))
	case "dispatch":
		return printTable(experiments.DispatchStudy(*siteID, 4))
	case "curtailment":
		return printTable(experiments.CurtailmentAbsorptionStudy(*siteID, 4.0))
	case "marginal":
		return printTable(experiments.MarginalStudy(*siteID))
	case "ensemble":
		return printTable(experiments.EnsembleStudy(*siteID, 5))
	case "pue":
		return printTable(experiments.PUEStudy())
	case "atlas":
		return printTable(experiments.CoverageAtlas())
	case "horizon":
		return printTable(experiments.HorizonStudy(*siteID, 10))
	case "dr-signals":
		return printTable(experiments.DRSignalStudy(*siteID))
	case "sensitivity":
		return printTable(experiments.SensitivityStudy(*siteID))
	case "fwr":
		return printTable(experiments.FWRSweep(*siteID))
	case "cost":
		return printTable(experiments.CostStudy(*siteID))
	case "robustness":
		return printTable(experiments.RobustnessStudy(*siteID, 4))
	case "optimizer":
		return printTable(experiments.OptimizerStudy(*siteID))
	case "jobsim":
		return printTable(experiments.JobSimStudy(*siteID))
	case "ablation":
		return printTable(experiments.SearchAblation(*siteID))
	default:
		return fmt.Errorf("unknown study %q", name)
	}
}

func printChart(c string, err error) error {
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(c)
	return nil
}

func printTable(t experiments.Table, err ...error) error {
	if len(err) > 0 && err[0] != nil {
		return err[0]
	}
	fmt.Print(t)
	return nil
}
