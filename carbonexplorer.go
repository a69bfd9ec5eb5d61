// Package carbonexplorer is a holistic framework for designing carbon-aware
// datacenters, reproducing "Carbon Explorer: A Holistic Framework for
// Designing Carbon Aware Datacenters" (ASPLOS 2023).
//
// The framework takes hourly datacenter power demand and hourly renewable
// generation for the datacenter's regional grid, explores a design space of
//
//   - renewable energy investments (wind and solar capacity),
//   - battery storage (a C/L/C lithium-ion model), and
//   - carbon-aware workload scheduling (with extra server capacity),
//
// and finds the configuration minimizing total carbon — operational carbon
// from grid energy plus the embodied carbon of manufacturing farms,
// batteries, and servers.
//
// # Quick start
//
//	site := carbonexplorer.MustSite("UT")
//	in, err := carbonexplorer.NewInputs(site)
//	if err != nil { ... }
//	outcome, err := in.Evaluate(carbonexplorer.Design{
//		WindMW:     239,
//		SolarMW:    694,
//		BatteryMWh: 4 * in.AvgDemandMW(),
//		DoD:        1.0,
//	})
//	fmt.Printf("coverage %.1f%%, total %s/yr\n", outcome.CoveragePct, outcome.Total())
//
// Sites ships the paper's Table 1 locations; supply data is simulated by a
// physically-motivated synthetic grid model, and real hourly data can be
// substituted via NewInputsFromSeries or the eiacsv-format loader in the
// gridgen tool.
package carbonexplorer

import (
	"context"
	"net/http"

	"carbonexplorer/internal/battery"
	"carbonexplorer/internal/carbon"
	"carbonexplorer/internal/coordinator"
	"carbonexplorer/internal/dcload"
	"carbonexplorer/internal/explorer"
	"carbonexplorer/internal/fleet"
	"carbonexplorer/internal/forecast"
	"carbonexplorer/internal/grid"
	"carbonexplorer/internal/netzero"
	"carbonexplorer/internal/scheduler"
	"carbonexplorer/internal/serve"
	"carbonexplorer/internal/sweep"
	"carbonexplorer/internal/timeseries"
	"carbonexplorer/internal/units"
	"carbonexplorer/internal/workload"
)

// Core exploration types.
type (
	// Inputs bundles a site's demand and supply data for design evaluation.
	Inputs = explorer.Inputs
	// Design is one point in the design space.
	Design = explorer.Design
	// Outcome is an evaluated design: coverage, operational and embodied
	// carbon.
	Outcome = explorer.Outcome
	// Strategy selects which solution dimensions a search may use.
	Strategy = explorer.Strategy
	// Space bounds a design-space search.
	Space = explorer.Space
	// SearchResult holds all evaluated points and the carbon optimum.
	SearchResult = explorer.SearchResult
	// SearchReport accounts for every design in a sweep: evaluated,
	// failed (with the offending design and cause), or skipped after
	// cancellation.
	SearchReport = explorer.SearchReport
	// DesignError pairs a failed design with its error.
	DesignError = explorer.DesignError
	// PanicError is a panic recovered from a search worker, with stack.
	PanicError = explorer.PanicError
	// ScenarioIntensities compares grid-mix, Net Zero, and 24/7 hourly
	// operational carbon intensity.
	ScenarioIntensities = explorer.ScenarioIntensities
)

// Grid and site types.
type (
	// Site is a datacenter location with its regional renewable
	// investments (the paper's Table 1).
	Site = grid.Site
	// BAProfile describes a balancing authority's generation profile.
	BAProfile = grid.BAProfile
	// GridYear is one simulated year of hourly grid operation.
	GridYear = grid.Year
)

// Modelling types.
type (
	// Series is an hourly time series.
	Series = timeseries.Series
	// RepairPolicy bounds the gap-filling that tolerant data loading may
	// perform.
	RepairPolicy = timeseries.RepairPolicy
	// RepairReport accounts for every value a Repair changed.
	RepairReport = timeseries.RepairReport
	// BatteryParams configures the C/L/C storage model.
	BatteryParams = battery.Params
	// Battery is a stateful storage simulator.
	Battery = battery.Battery
	// EmbodiedParams holds manufacturing-footprint assumptions.
	EmbodiedParams = carbon.EmbodiedParams
	// DemandParams configures the datacenter demand model.
	DemandParams = dcload.Params
	// DemandTrace is simulated utilization and power.
	DemandTrace = dcload.Trace
	// SchedulerConfig parameterizes greedy daily workload shifting.
	SchedulerConfig = scheduler.Config
	// WorkloadTier is a completion-time SLO class.
	WorkloadTier = workload.Tier
	// BatteryTechnology selects a storage chemistry (LFP, NMC, sodium-ion).
	BatteryTechnology = battery.Technology
	// Forecaster predicts future hours of a series for online scheduling.
	Forecaster = forecast.Forecaster
	// NetZeroSummary compares credit matching across accounting windows.
	NetZeroSummary = netzero.Summary
	// FleetDC is one datacenter in a geographic load-balancing fleet.
	FleetDC = fleet.DC
	// FleetConfig parameterizes geographic load migration.
	FleetConfig = fleet.Config
	// FleetResult summarizes a fleet-balancing run.
	FleetResult = fleet.Result
)

// Storage chemistries for Design.BatteryTech.
const (
	LFP       = battery.LFPCell
	NMC       = battery.NMCCell
	SodiumIon = battery.NaIonCell
)

// The four strategies of the paper's Section 5.
const (
	RenewablesOnly       = explorer.RenewablesOnly
	RenewablesBattery    = explorer.RenewablesBattery
	RenewablesCAS        = explorer.RenewablesCAS
	RenewablesBatteryCAS = explorer.RenewablesBatteryCAS
)

// Sites returns the paper's thirteen datacenter locations.
func Sites() []Site { return grid.Sites() }

// SiteByID returns the site with the given short identifier (e.g. "UT").
func SiteByID(id string) (Site, error) { return grid.SiteByID(id) }

// MustSite is SiteByID for statically known identifiers; it panics on a
// miss.
func MustSite(id string) Site { return grid.MustSite(id) }

// BalancingAuthorities lists the supported balancing-authority codes.
func BalancingAuthorities() []string { return grid.Codes() }

// NewInputs assembles evaluation inputs for a site by simulating its grid
// year and demand trace. Options WithDemandParams and WithEmbodiedParams
// customize the models.
func NewInputs(site Site, opts ...explorer.Option) (*Inputs, error) {
	return explorer.NewInputs(site, opts...)
}

// WithDemandParams overrides the default demand model in NewInputs.
func WithDemandParams(p DemandParams) explorer.Option { return explorer.WithDemandParams(p) }

// WithEmbodiedParams overrides the embodied-carbon assumptions in NewInputs.
func WithEmbodiedParams(p EmbodiedParams) explorer.Option { return explorer.WithEmbodiedParams(p) }

// NewInputsFromSeries assembles inputs from caller-provided hourly series,
// for users substituting measured grid and datacenter data. Series are
// validated (finite, non-negative, matching lengths); pass WithSeriesRepair
// to accept and gap-fill mildly corrupt data instead.
func NewInputsFromSeries(site Site, demand, windShape, solarShape, gridCI Series, emb EmbodiedParams, opts ...explorer.Option) (*Inputs, error) {
	return explorer.NewInputsFromSeries(site, demand, windShape, solarShape, gridCI, emb, opts...)
}

// WithSeriesRepair makes NewInputsFromSeries repair invalid samples (NaN,
// infinities, negatives) under the given policy instead of rejecting them.
func WithSeriesRepair(p RepairPolicy) explorer.Option { return explorer.WithSeriesRepair(p) }

// DefaultRepairPolicy interpolates gaps up to 6 hours and clamps negative
// samples to zero.
func DefaultRepairPolicy() RepairPolicy { return timeseries.DefaultRepairPolicy() }

// ErrAllDesignsFailed reports a sweep in which no design survived
// evaluation; the SearchReport in the accompanying SearchResult lists every
// failure.
var ErrAllDesignsFailed = explorer.ErrAllDesignsFailed

// Coverage computes the paper's 24/7 renewable-coverage metric (percent of
// datacenter energy covered hourly by renewable supply).
func Coverage(demand, renewable Series) (float64, error) {
	return explorer.Coverage(demand, renewable)
}

// DefaultSpace returns a paper-scaled search grid for a site.
func DefaultSpace(in *Inputs) Space { return explorer.DefaultSpace(in) }

// AllStrategies lists the four strategies in the paper's order.
func AllStrategies() []Strategy { return explorer.AllStrategies() }

// ParetoFrontier extracts the non-dominated outcomes in the
// (operational, embodied) carbon plane, sorted by increasing embodied
// carbon.
func ParetoFrontier(points []Outcome) []Outcome { return explorer.ParetoFrontier(points) }

// Streaming sweep types (internal/sweep): bounded-memory, checkpointable,
// retrying design-space sweeps for grids too dense to materialize.
type (
	// SweepOptions configures a streaming sweep: batch size (peak resident
	// outcomes), checkpointing (the Checkpoint sub-struct), retry policy
	// (Retries; SweepNoRetries disables), and the Plan describing what the
	// sweep covers (mode, shard slice, adaptive knobs).
	SweepOptions = sweep.Options
	// SweepCheckpointOptions is the Checkpoint sub-struct of SweepOptions:
	// path, save cadence, and resume flag. The zero value disables
	// checkpointing.
	SweepCheckpointOptions = sweep.CheckpointOptions
	// SweepResult is the streamed optimum, Pareto frontier, and accounting.
	SweepResult = sweep.Result
	// SweepReport accounts for every design: evaluated, restored from
	// checkpoint, retried, recovered, failed, skipped, or left to other
	// shards.
	SweepReport = sweep.Report
	// SweepPlan is the single entry point describing what a sweep covers:
	// the mode (exhaustive or adaptive), the shard slice, and the adaptive
	// refinement knobs (Tolerance, MaxRounds, CoarsePointsPerDim). The zero
	// value is a full exhaustive sweep.
	SweepPlan = sweep.Plan
	// SweepMode selects between exhaustive and adaptive sweeps in a
	// SweepPlan.
	SweepMode = sweep.Mode
	// SweepAdaptiveProgress reports an adaptive sweep's refinement state:
	// rounds executed, evaluations per round, surviving cells, convergence.
	SweepAdaptiveProgress = sweep.AdaptiveProgress
	// SweepShard identifies one worker's contiguous i/N slice of a sweep's
	// design enumeration; the zero value means unsharded.
	SweepShard = sweep.Shard
	// SweepShardPlan pairs a shard with its concrete design-index range.
	SweepShardPlan = sweep.ShardPlan
	// SweepMergeReport accounts for a checkpoint merge: per-shard progress
	// and merged totals.
	SweepMergeReport = sweep.MergeReport
	// SweepShardProgress summarizes one input checkpoint of a merge.
	SweepShardProgress = sweep.ShardProgress
	// SweepWorkerProgress summarizes one coordinated worker's share of a
	// sweep: leases finished, leases stolen, designs evaluated and failed.
	SweepWorkerProgress = sweep.WorkerProgress
)

// SweepNoRetries disables failed-design retries in SweepOptions.Retries
// (the zero value means the default single retry).
const SweepNoRetries = sweep.NoRetries

// Sweep modes for SweepPlan.Mode.
const (
	// SweepModeExhaustive evaluates every design in the space — the
	// default.
	SweepModeExhaustive = sweep.ModeExhaustive
	// SweepModeAdaptive refines a coarse lattice toward the Pareto
	// frontier, evaluating orders of magnitude fewer designs than the dense
	// grid while reaching the same frontier within SweepPlan.Tolerance.
	SweepModeAdaptive = sweep.ModeAdaptive
)

// Sweep checkpoint errors.
var (
	// ErrCheckpointVersion reports a checkpoint from an incompatible schema
	// version.
	ErrCheckpointVersion = sweep.ErrCheckpointVersion
	// ErrCheckpointMismatch reports a checkpoint that describes a different
	// sweep (site, strategy, space, inputs, or shard slice changed).
	ErrCheckpointMismatch = sweep.ErrCheckpointMismatch
	// ErrBadShard reports a malformed or out-of-range shard specification.
	ErrBadShard = sweep.ErrBadShard
)

// RunSweep executes a streaming sweep of the space under the strategy:
// designs are evaluated in bounded batches and folded into a running
// optimum and Pareto frontier, so memory stays flat in grid density. With a
// checkpoint configured in opts.Checkpoint, an interrupted sweep resumes
// where it stopped and converges to the same result as an uninterrupted
// run; failed designs are retried opts.Retries times (default once) before
// exclusion. See internal/sweep for the checkpoint format.
func RunSweep(ctx context.Context, in *Inputs, space Space, strategy Strategy, opts SweepOptions) (SweepResult, error) {
	return sweep.Run(ctx, in, space, strategy, opts)
}

// RunAdaptiveSweep executes an adaptive sweep: a coarse lattice over the
// space is evaluated, cells that provably cannot reach the Pareto frontier
// within plan.Tolerance are pruned, and the survivors are subdivided for
// the next round, up to plan.MaxRounds. The refinement work-list is a pure
// function of the space, the plan, and the prior round's frontier, so
// results are byte-identical to the same plan run sharded or coordinated,
// and checkpoints resume across interruptions exactly like exhaustive
// sweeps. plan.Mode is forced to SweepModeAdaptive; every other SweepOptions
// field (batch, retries, checkpointing) applies unchanged.
func RunAdaptiveSweep(ctx context.Context, in *Inputs, space Space, strategy Strategy, plan SweepPlan, opts SweepOptions) (SweepResult, error) {
	plan.Mode = sweep.ModeAdaptive
	opts.Plan = plan
	return sweep.Run(ctx, in, space, strategy, opts)
}

// ParseSweepMode parses a sweep mode name ("exhaustive" or "adaptive") for
// SweepPlan.Mode.
func ParseSweepMode(s string) (SweepMode, error) { return sweep.ParseMode(s) }

// ParseSweepShard parses an "index/count" shard specification (e.g. "2/3")
// for SweepPlan.Shard; the empty string means unsharded. Malformed or
// out-of-range specifications wrap ErrBadShard.
func ParseSweepShard(spec string) (SweepShard, error) { return sweep.ParseShard(spec) }

// PlanSweepShards partitions an n-design enumeration into count contiguous,
// balanced slices — the deterministic, coordination-free launch plan for a
// sharded sweep. Use Space.Enumerate (via DefaultSpace and the strategy) to
// obtain n, hand each worker its i/count, and merge the resulting
// checkpoints with MergeSweepCheckpoints. CoordinateSweep uses the same
// planner with a much finer count to hand slices out dynamically instead.
func PlanSweepShards(n, count int) ([]SweepShardPlan, error) { return sweep.PlanShards(n, count) }

// MergeSweepResults folds independently obtained sweep results — shard or
// lease slices of one design space — into a single result, exactly as if
// one process had swept the union: the optimum is the minimum over inputs,
// the frontier is the associative Pareto fold, and accounting sums.
func MergeSweepResults(results ...SweepResult) SweepResult { return sweep.MergeResults(results...) }

// CoordinatorOptions configures a dynamically coordinated sweep: worker
// count, lease granularity, the optional lease directory for multi-process
// coordination, and liveness timings. The zero value picks sensible
// defaults (GOMAXPROCS workers, 8 leases per worker, in-process mode).
type CoordinatorOptions = coordinator.Options

// CoordinateSweep runs a work-stealing coordinated sweep: the design space
// is split into many small leases (far more leases than workers) which
// workers claim dynamically, so a slow or failed worker delays only its
// current lease rather than a fixed 1/N of the space. With
// opts.LeaseDir set, independently launched processes sharing that
// directory coordinate through heartbeat-stamped lease files — a killed
// worker's lease expires and is stolen, resuming from its per-lease
// checkpoint — and the merged result is byte-identical to a single-process
// RunSweep over the same space. With opts.Endpoint set instead, the same
// protocol runs over HTTP against a CoordinatorService: workers on any
// machine share the sweep with no common filesystem.
func CoordinateSweep(ctx context.Context, in *Inputs, space Space, strategy Strategy, opts CoordinatorOptions) (SweepResult, error) {
	return coordinator.Run(ctx, in, space, strategy, opts)
}

// CoordinatorService is the transport-agnostic lease-coordination core: it
// hands out design-space leases, folds uploaded progress checkpoints, and
// persists everything to a state directory so a killed-and-restarted
// coordinator resumes its fleet. Serve its Handler over HTTP and point
// CoordinateSweep workers at the URL via CoordinatorOptions.Endpoint.
type CoordinatorService = coordinator.Service

// CoordinatorServiceOptions configures a CoordinatorService: the lease TTL
// and an optional pinned lease count.
type CoordinatorServiceOptions = coordinator.ServiceOptions

// CoordinatorClient speaks the coordinator HTTP protocol directly — the
// low-level client CoordinateSweep uses under the hood, exported for
// status polling and custom tooling. Every call retries transient network
// failures with deterministic jittered exponential backoff.
type CoordinatorClient = coordinator.Client

// CoordinatorClientOptions tunes a CoordinatorClient's per-request
// timeout, retry budget, backoff base, and transport.
type CoordinatorClientOptions = coordinator.ClientOptions

// NewCoordinatorService opens (or resumes) a lease coordinator over the
// given state directory.
func NewCoordinatorService(stateDir string, opts CoordinatorServiceOptions) (*CoordinatorService, error) {
	return coordinator.NewService(stateDir, opts)
}

// NewCoordinatorClient returns a client for the coordinator HTTP API at
// base, e.g. "http://host:8080".
func NewCoordinatorClient(base string, opts CoordinatorClientOptions) *CoordinatorClient {
	return coordinator.NewClient(base, opts)
}

// MergeSweepCheckpoints folds any set of shard checkpoint files — complete
// or partial — into a single merged checkpoint at dst that RunSweep's
// Resume accepts. The merge is associative: per-design statuses join, the
// optimum is the min over shard optima, and the Pareto frontier is the fold
// of all shard frontiers, so the merged state equals a single-process sweep
// over every design the shards completed. Checkpoints from a different
// sweep are rejected with ErrCheckpointMismatch.
func MergeSweepCheckpoints(dst string, srcs ...string) (SweepMergeReport, error) {
	return sweep.MergeCheckpoints(dst, srcs...)
}

// MergeFrontiers folds any number of Pareto frontiers into one — the
// associative frontier merge that lets partitions of a design space be
// swept independently: MergeFrontiers(ParetoFrontier(a), ParetoFrontier(b))
// equals ParetoFrontier(a ∪ b) for any split.
func MergeFrontiers(frontiers ...[]Outcome) []Outcome { return explorer.MergeFrontiers(frontiers...) }

// DefaultEmbodiedParams returns the paper's Section 5.1 assumptions.
func DefaultEmbodiedParams() EmbodiedParams { return carbon.DefaultEmbodiedParams() }

// DefaultDemandParams returns the paper-calibrated demand model for a
// datacenter with the given average power.
func DefaultDemandParams(avgPowerMW float64) DemandParams { return dcload.DefaultParams(avgPowerMW) }

// LFPBattery returns the paper's Lithium Iron Phosphate battery
// configuration at the given capacity (MWh) and depth of discharge.
func LFPBattery(capacityMWh, dod float64) BatteryParams { return battery.LFP(capacityMWh, dod) }

// NewBattery builds a battery simulator from params.
func NewBattery(p BatteryParams) (*Battery, error) { return battery.New(p) }

// GenerateGridYear simulates one hourly year for a balancing authority.
func GenerateGridYear(baCode string) (*GridYear, error) {
	p, err := grid.Profile(baCode)
	if err != nil {
		return nil, err
	}
	return grid.GenerateYear(p), nil
}

// ShiftDaily applies the paper's greedy carbon-aware scheduling pass: within
// each window, flexible load moves from high-signal hours (carbon intensity
// or renewable deficit) to low-signal hours under a capacity cap.
func ShiftDaily(demand, signal Series, cfg SchedulerConfig) (Series, error) {
	return scheduler.ShiftDaily(demand, signal, cfg)
}

// GramsCO2 is a carbon mass in grams of CO2-equivalent.
type GramsCO2 = units.GramsCO2

// MegaWattHours is energy in MWh.
type MegaWattHours = units.MegaWattHours

// SeriesOf builds an hourly series from literal values.
func SeriesOf(values ...float64) Series { return timeseries.FromValues(values) }

// ConstantSeries builds an n-hour series of a constant value.
func ConstantSeries(n int, v float64) Series { return timeseries.Constant(n, v) }

// GenerateSeries builds an n-hour series by evaluating f at each hour.
func GenerateSeries(n int, f func(hour int) float64) Series { return timeseries.Generate(n, f) }

// Credit-matching granularities for NetZeroSummary.ByPeriod.
const (
	MatchAnnual  = netzero.Annual
	MatchMonthly = netzero.Monthly
	MatchDaily   = netzero.Daily
	MatchHourly  = netzero.Hourly
)

// NetZeroSummarize compares REC matching at annual, monthly, daily, and
// hourly windows for a demand/credit pair — the paper's Net Zero vs 24/7
// gap, quantified.
func NetZeroSummarize(demand, credits Series) (NetZeroSummary, error) {
	return netzero.Summarize(demand, credits)
}

// BalanceFleet migrates load across datacenters toward renewable surpluses.
func BalanceFleet(dcs []FleetDC, cfg FleetConfig) (FleetResult, error) {
	return fleet.Balance(dcs, cfg)
}

// EnsembleResult summarizes a design's outcome distribution across weather
// years.
type EnsembleResult = explorer.EnsembleResult

// EnsembleEvaluate evaluates a design across several weather realizations
// of the site's climate, returning coverage and total-carbon percentiles —
// the design-under-uncertainty view the paper's single-year (2020)
// evaluation cannot provide.
func EnsembleEvaluate(site Site, d Design, years int) (EnsembleResult, error) {
	return explorer.EnsembleEvaluate(site, d, years)
}

// EnsembleEvaluateContext is EnsembleEvaluate honoring cancellation between
// weather years.
func EnsembleEvaluateContext(ctx context.Context, site Site, d Design, years int) (EnsembleResult, error) {
	return explorer.EnsembleEvaluateContext(ctx, site, d, years)
}

// Read-optimized serving layer (internal/serve): finished sweep checkpoints
// load into an immutable in-memory index that answers
// optimum-under-constraints, Pareto-frontier, per-region comparison, and
// chart queries — lock-free and allocation-free on the hot read path. See
// docs/SERVING.md for the HTTP API this backs.
type (
	// ServeIndex is an immutable set of loaded sweeps keyed by space hash.
	ServeIndex = serve.Index
	// ServeSnapshot is one loaded sweep, frozen into query-ready form.
	ServeSnapshot = serve.Snapshot
	// ServePoint is one queryable frontier design with its capital cost.
	ServePoint = serve.Point
	// ServeQuery constrains an optimum query; ServeUnconstrained fields
	// impose nothing.
	ServeQuery = serve.Query
	// ServeOptions configures index construction (cost model, inputs
	// source); the zero value uses the defaults.
	ServeOptions = serve.Options
	// SweepCheckpoint is the validated, read-only view of a sweep
	// checkpoint file.
	SweepCheckpoint = sweep.Checkpoint
)

// ErrServeInfeasible reports that no frontier design satisfies a
// ServeQuery's constraints.
var ErrServeInfeasible = serve.ErrInfeasible

// ServeUnconstrained marks a ServeQuery field as absent (it is NaN; any NaN
// works).
var ServeUnconstrained = serve.Unconstrained

// LoadServeIndex builds an immutable query index from sweep checkpoint
// files — per-shard, merged, or coordinator-produced. Files describing the
// same space hash are rejected; fold them first with MergeSweepCheckpoints.
func LoadServeIndex(paths []string, opts ServeOptions) (*ServeIndex, error) {
	return serve.Load(paths, opts)
}

// ServeHandler exposes the index's query API over HTTP — the handler behind
// `carbonexplorer serve`. Endpoints, schemas, and error codes are
// documented in docs/SERVING.md.
func ServeHandler(ix *ServeIndex) http.Handler { return serve.Handler(ix) }

// ReadSweepCheckpoint loads and validates one checkpoint file without
// resuming it: progress counts, the running optimum, and the Pareto
// frontier, for tooling that inspects sweeps without re-evaluating designs.
func ReadSweepCheckpoint(path string) (*SweepCheckpoint, error) {
	return sweep.ReadCheckpoint(path)
}
