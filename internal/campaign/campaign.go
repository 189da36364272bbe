// Package campaign is the cross-scene / cross-device DSE engine: it
// replays the paper's per-scene, per-device tuning methodology over a
// whole grid of scenario cells instead of one invocation per scene.
//
// A campaign enumerates a scenario registry — scene × trajectory ×
// resolution × noise, the analogues of ICL-NUIM living-room kt0–kt3 and
// office kt0–kt1 — crossed with a set of device targets (the ODROID-XU3
// plus named picks from the phone catalogue), and runs as a staged job
// model:
//
//	Plan → Explore → Promote → CrossMeasure → Aggregate
//
// Every stage consumes and emits serialisable per-cell artifacts. With
// Options.CheckpointDir set the artifacts are persisted — one versioned,
// checksummed file per cell, keyed by a content hash of the cell spec,
// seed and options (see Store) — and loaded back whenever they match, so a
// campaign killed at any point restarts from its completed cells and a
// changed option automatically invalidates stale artifacts. The Explore
// stage runs each cell's constrained Fig2-style exploration; with
// Options.CellStride > 1 it first screens every cell on a
// stride-subsampled sequence and the Promote stage re-explores only the
// cells whose screened Pareto fronts are competitive (hypervolume
// against a shared reference, index-tie-broken like the intra-cell
// ladder) at full fidelity — the multi-fidelity ladder replayed at grid
// granularity. CrossMeasure then measures the union of per-cell winners
// in every cell, and Aggregate picks the cross-scenario *robust*
// configuration: feasible in every cell and minimal worst-case per-cell
// rank (hypermapper.RobustBest). That makes the paper's "one
// configuration does not fit all scenes" point quantitative — the
// per-cell winners are reported next to the single configuration you
// would ship when the scene is not known in advance.
//
// Determinism: the cell grid is enumerated in fixed scenario-major
// order, each cell derives its seed from the campaign seed and its own
// grid index, and every layer below (optimizer batches, ladder and cell
// promotion, parallel map) is bit-deterministic for any worker count —
// so a seeded campaign produces an identical report for any Workers
// value, and an interrupted-then-resumed campaign renders byte-identical
// to an uninterrupted one (artifacts round-trip float64 exactly).
package campaign

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"slamgo/internal/core"
	"slamgo/internal/device"
	"slamgo/internal/evalstore"
	"slamgo/internal/hypermapper"
	"slamgo/internal/kfusion"
	"slamgo/internal/phones"
	"slamgo/internal/seqcache"
	"slamgo/internal/sharedfs"
	"slamgo/internal/slambench"
)

// Scenario is one workload cell of the registry: a named scene,
// trajectory, resolution and noise combination.
type Scenario struct {
	// Name identifies the scenario in reports (e.g. "lr_kt2").
	Name string
	// Scale fixes the scene, trajectory, resolution, frame count and
	// noise of the cell's sequence.
	Scale core.Scale
}

// Scenarios derives the full scene × trajectory registry at a base
// scale: the four living-room trajectories and the two office ones,
// all at the base's resolution, frame count and noise setting.
func Scenarios(base core.Scale) []Scenario {
	out := make([]Scenario, 0, 6)
	for kt := 0; kt <= 3; kt++ {
		s := base
		s.KT, s.Office = kt, false
		out = append(out, Scenario{Name: fmt.Sprintf("lr_kt%d", kt), Scale: s})
	}
	for kt := 0; kt <= 1; kt++ {
		s := base
		s.KT, s.Office = kt, true
		out = append(out, Scenario{Name: fmt.Sprintf("of_kt%d", kt), Scale: s})
	}
	return out
}

// SelectScenarios picks named scenarios out of the base registry,
// preserving the requested order. An empty or duplicated selection is
// rejected — both are configuration mistakes a long campaign should
// fail on immediately, not minutes in.
func SelectScenarios(base core.Scale, names []string) ([]Scenario, error) {
	if len(names) == 0 {
		return nil, errors.New("campaign: empty scenario selection")
	}
	all := Scenarios(base)
	byName := make(map[string]Scenario, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	out := make([]Scenario, 0, len(names))
	picked := make(map[string]bool, len(names))
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("campaign: unknown scenario %q (have lr_kt0..lr_kt3, of_kt0..of_kt1)", n)
		}
		if picked[n] {
			return nil, fmt.Errorf("campaign: scenario %q selected twice", n)
		}
		picked[n] = true
		out = append(out, s)
	}
	return out, nil
}

// ResolveTargets maps device names onto profiles: "odroid-xu3" and
// "desktop-gpu" resolve to the built-in boards, anything else is looked
// up in the seed's phone catalogue (one phones.ByName batch, so the
// catalogue is generated once however many phones are named). As with
// SelectScenarios, an empty or duplicated selection is an error.
func ResolveTargets(seed int64, names []string) ([]device.Profile, error) {
	if len(names) == 0 {
		return nil, errors.New("campaign: empty device selection")
	}
	picked := make(map[string]bool, len(names))
	var phoneNames []string
	for _, n := range names {
		if picked[n] {
			return nil, fmt.Errorf("campaign: device %q selected twice", n)
		}
		picked[n] = true
		if n != "odroid-xu3" && n != "desktop-gpu" {
			phoneNames = append(phoneNames, n)
		}
	}
	picks, err := phones.ByName(seed, phoneNames...)
	if err != nil {
		return nil, err
	}
	out := make([]device.Profile, 0, len(names))
	for _, n := range names {
		switch n {
		case "odroid-xu3":
			out = append(out, device.OdroidXU3())
		case "desktop-gpu":
			out = append(out, device.DesktopGPU())
		default:
			out = append(out, picks[0])
			picks = picks[1:]
		}
	}
	return out, nil
}

// Cell is one scenario × target combination of the campaign grid.
type Cell struct {
	// Index is the cell's position in the fixed grid enumeration; the
	// cell's exploration seed derives from it.
	Index    int
	Scenario Scenario
	Target   device.Profile
}

// Grid enumerates scenarios × targets in fixed scenario-major order.
func Grid(scenarios []Scenario, targets []device.Profile) []Cell {
	out := make([]Cell, 0, len(scenarios)*len(targets))
	for _, s := range scenarios {
		for _, t := range targets {
			out = append(out, Cell{Index: len(out), Scenario: s, Target: t})
		}
	}
	return out
}

// Options parameterise a campaign run.
type Options struct {
	// Scenarios and Targets span the cell grid (both must be non-empty).
	Scenarios []Scenario
	Targets   []device.Profile
	// RandomSamples / ActiveIterations / BatchPerIteration configure
	// each cell's exploration; zero values use the Fig2 defaults.
	RandomSamples     int
	ActiveIterations  int
	BatchPerIteration int
	// AccuracyLimit is the shared feasibility bound (default 0.05 m).
	AccuracyLimit float64
	// Seed drives the whole campaign; each cell's exploration seed is
	// derived from it and the cell's grid index.
	Seed int64
	// Workers bounds the parallelism at every level: cells fan out over
	// the worker pool, and each cell's exploration uses the same knob
	// (internal/parallel caps nested regions to idle cores). The
	// campaign result is identical for any value.
	Workers int
	// FidelityStride > 1 enables the multi-fidelity ladder inside every
	// full-fidelity cell exploration: a stride-subsampled screening pass
	// ranked by core.FidelityRank, then full fidelity for the promoted
	// share.
	FidelityStride int
	// PromoteFraction is the intra-cell ladder's promoted share per
	// batch.
	PromoteFraction float64
	// CellStride > 1 enables cell-level multi-fidelity: the Explore
	// stage first runs every cell's exploration on a CellStride-
	// subsampled sequence (the screening rung), and the Promote stage
	// re-explores only the cells whose screened fronts are competitive
	// at full fidelity. Unpromoted cells keep — and are reported at —
	// screening fidelity.
	CellStride int
	// CellPromoteFraction is the share of grid cells promoted to
	// full-fidelity exploration (default 0.5; at least one cell is
	// always promoted).
	CellPromoteFraction float64
	// Transfer enables cross-cell transfer learning: the Explore stage
	// runs as two waves — grid-diagonal anchor cells explore from
	// scratch, every other cell warm-starts from its same-scenario and
	// same-device anchors (concentrated seeding around donor winners
	// plus a pooled surrogate prior; see transfer.go). Donor knowledge
	// only steers where a borrower samples — observations, fronts and
	// best picks stay strictly per-cell — and the whole schedule is
	// deterministic: reports are bit-identical for any Workers value and
	// across cooperating worker processes.
	Transfer bool
	// TransferSeeds is a warm-started borrower's random-phase budget,
	// replacing RandomSamples (default 3, minimum 3 — the donor-backed
	// prior lets the surrogate stand on far fewer local observations
	// than the from-scratch floor of 5). A borrower's freed budget
	// funds one extra active-learning round when the total still clears
	// the 20% savings bar against a from-scratch cell: model-guided
	// picks recover front quality per simulation far better than the
	// random draws they replace (see transfer.go). Ignored without
	// Transfer.
	TransferSeeds int
	// Knowledge adds per-cell decision rules (hypermapper.Knowledge over
	// the cell's full-fidelity observations) to the JSON report. Opt-in
	// so default reports keep their byte surface.
	Knowledge bool
	// CheckpointDir, when non-empty, persists every stage's per-cell
	// artifacts into this directory (created if needed) as versioned,
	// checksummed files keyed by content hashes of the cell spec + seed +
	// options, and loads every matching artifact instead of recomputing
	// it, so completed work survives a kill: rerunning a campaign over
	// the same directory continues it with zero re-simulation. Artifacts
	// whose options hash differs are never read.
	CheckpointDir string
	// WorkerID, when non-empty, runs this process as one cooperating
	// worker of a multi-process campaign: cells are claimed through
	// .lease files in CheckpointDir (atomic create, heartbeat renewal,
	// TTL expiry — see internal/sharedfs), so N workers sharing the
	// directory split the grid dynamically and any worker can be
	// SIGKILLed without losing the campaign. Requires CheckpointDir; a
	// worker loads the cells its peers completed like any other matching
	// artifact. Every worker that runs to completion renders the
	// identical report.
	WorkerID string
	// LeaseTTL is the heartbeat deadline after which a dead or stalled
	// worker's cell lease may be reclaimed by its peers (default 10s).
	// Set it above the renewal jitter of the slowest shared filesystem
	// involved but well below the cost of a cell exploration; an
	// expired-but-alive holder only wastes duplicate work, never
	// corrupts the campaign.
	LeaseTTL time.Duration
	// SeqCacheDir, when non-empty, shares rendered synthetic sequences
	// across cells, stages and cooperating worker processes through the
	// content-addressed crash-safe cache of internal/seqcache: each
	// distinct sequence (keyed by core.Scale.CacheKey) is rendered once
	// per shared store and loaded everywhere else. Every cache failure
	// mode — corrupt or torn artifacts, a full disk, a dead renderer's
	// lease — degrades gracefully to inline rendering: logged, counted
	// in Result.SeqStats, never fatal, and the report is byte-identical
	// either way. Empty keeps the cache in-process only (sequences are
	// still rendered once per process and shared across cells).
	SeqCacheDir string
	// SeqCacheMaxBytes bounds the sequence cache's on-disk size (0 =
	// unbounded); over-budget artifacts are evicted deterministically in
	// lexicographic key order, newest write exempt. Requires SeqCacheDir.
	SeqCacheMaxBytes int64
	// EvalCacheDir, when non-empty, persists every simulation result
	// into the content-addressed evaluation store of internal/evalstore
	// shared across cells, stages, cooperating worker processes, resumed
	// runs and entirely separate campaigns: each distinct (configuration,
	// sequence, device, fidelity stride) is simulated once per shared
	// store, anywhere, and loaded everywhere else. Every store failure
	// mode — corrupt or torn records, a full disk, a dead simulator's
	// lease — degrades gracefully to inline simulation: logged, counted
	// in Result.EvalStats, never fatal, and the report is byte-identical
	// either way. Empty keeps evaluation memoization in-process only.
	EvalCacheDir string
	// EvalCacheMaxBytes bounds the evaluation store's on-disk size (0 =
	// unbounded); over-budget records are evicted deterministically in
	// lexicographic key order, newest write exempt. Requires EvalCacheDir.
	EvalCacheMaxBytes int64
	// CacheStats adds the cache-counter summary (memo, evaluation store,
	// sequence cache) to the JSON report under "caches". Off by default
	// because the counters are execution provenance — a warm store turns
	// simulations into disk hits — so the default report surface stays
	// byte-identical across cold, warm and multi-worker runs; the same
	// counters always reach stderr via WriteCampaignProvenance.
	CacheStats bool
	// StopAfter, when non-empty, ends the run cleanly after the named
	// stage (the checkpoint/resume analogue of a kill at a stage
	// boundary; Result.StoppedAfter echoes it). The zero value runs to
	// completion.
	StopAfter Stage
	// MaxFrontCandidates caps how many Pareto-front members each cell
	// contributes to the robust candidate set, fastest first (the
	// cell's best feasible configuration is always included). Default 3.
	MaxFrontCandidates int
	// Log, when non-nil, receives progress lines (order follows
	// scheduling, not the grid; the report itself stays deterministic).
	Log func(string)
	// Cancel, when non-nil, requests a cooperative early stop: the
	// runner checks it before starting any cell work and between
	// stages, lets cells already in flight finish and checkpoint (a
	// half-explored cell is lost work, a persisted one resumes for
	// free), and returns ErrCanceled once they drain. With a
	// CheckpointDir a canceled campaign is indistinguishable from one
	// killed at an artifact boundary — rerunning over the same
	// CheckpointDir continues it with zero re-simulation. The
	// long-running campaign service uses this for both user cancellation
	// and graceful drain.
	Cancel <-chan struct{}
	// OnProgress, when non-nil, receives stage and cell transition
	// events (see ProgressEvent): every stage start and end, and one
	// event per cell as its stage artifact becomes available — computed
	// locally or observed in the checkpoint store. Calls are
	// serialised; cell-event order follows scheduling (execution
	// provenance, like Log), while the report stays deterministic.
	OnProgress func(ProgressEvent)

	// observeSimulation, when non-nil, is called once per actual
	// pipeline simulation with the cell's grid index and the simulation
	// class — the hook resume tests use to prove checkpointed cells are
	// never re-simulated. Memo hits and checkpoint loads never fire it.
	observeSimulation func(cell int, class string)
	// onStore, when non-nil, receives the opened checkpoint store — the
	// seam the crash-safety tests use to arm and inspect its fault plan.
	onStore func(*Store)
	// cacheFaults and evalFaults, when non-nil, arm the fault plans of
	// the sequence cache and the evaluation store.
	cacheFaults, evalFaults *sharedfs.FaultPlan
	// sleepFn and nowFn, when non-nil, override time.Sleep / time.Now in
	// the retry, poll and lease layers (tests only; results never depend
	// on them).
	sleepFn func(time.Duration)
	nowFn   func() time.Time
}

// applyDefaults fills zero-valued knobs in place.
func (o *Options) applyDefaults() {
	if o.AccuracyLimit <= 0 {
		o.AccuracyLimit = 0.05
	}
	if o.RandomSamples <= 0 {
		o.RandomSamples = 20
	}
	if o.ActiveIterations <= 0 {
		o.ActiveIterations = 5
	}
	if o.BatchPerIteration <= 0 {
		o.BatchPerIteration = 4
	}
	if o.MaxFrontCandidates <= 0 {
		o.MaxFrontCandidates = 3
	}
	if o.TransferSeeds <= 0 {
		// Three seeds: the donor-backed prior lets the surrogate stand on
		// as few as two successful local observations (the from-scratch
		// floor is five), and one spare absorbs a failed configuration.
		o.TransferSeeds = 3
	}
	if o.CellPromoteFraction <= 0 || o.CellPromoteFraction > 1 {
		o.CellPromoteFraction = 0.5
	}
}

// Validate rejects unrunnable options. It is safe to call on options
// whose zero values still await applyDefaults, so CLIs can fail fast
// before any simulation starts.
func (o Options) Validate() error {
	if len(o.Scenarios) == 0 || len(o.Targets) == 0 {
		return errors.New("campaign: need at least one scenario and one target")
	}
	for _, t := range o.Targets {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	if o.AccuracyLimit < 0 {
		return fmt.Errorf("campaign: negative accuracy limit %g", o.AccuracyLimit)
	}
	if o.FidelityStride < 0 || o.CellStride < 0 {
		return fmt.Errorf("campaign: negative fidelity stride")
	}
	if o.PromoteFraction < 0 || o.PromoteFraction > 1 {
		return fmt.Errorf("campaign: promote fraction %g outside [0,1]", o.PromoteFraction)
	}
	if o.CellPromoteFraction < 0 || o.CellPromoteFraction > 1 {
		return fmt.Errorf("campaign: cell promote fraction %g outside [0,1]", o.CellPromoteFraction)
	}
	if o.TransferSeeds != 0 && o.TransferSeeds < 3 {
		return fmt.Errorf("campaign: transfer seeds %d below the prior-backed surrogate minimum of 3", o.TransferSeeds)
	}
	if _, err := ParseStage(string(o.StopAfter)); err != nil {
		return err
	}
	if o.StopAfter != "" && o.StopAfter != StagePlan && o.CheckpointDir == "" {
		return fmt.Errorf("campaign: StopAfter %s without CheckpointDir would discard the stage's work", o.StopAfter)
	}
	if o.WorkerID != "" && o.CheckpointDir == "" {
		return errors.New("campaign: WorkerID (cooperative worker mode) requires CheckpointDir")
	}
	if o.LeaseTTL < 0 {
		return fmt.Errorf("campaign: negative lease TTL %v", o.LeaseTTL)
	}
	if o.SeqCacheMaxBytes < 0 {
		return fmt.Errorf("campaign: negative sequence cache size %d", o.SeqCacheMaxBytes)
	}
	if o.EvalCacheMaxBytes < 0 {
		return fmt.Errorf("campaign: negative eval cache size %d", o.EvalCacheMaxBytes)
	}
	if o.SeqCacheMaxBytes > 0 && o.SeqCacheDir == "" {
		return errors.New("campaign: SeqCacheMaxBytes without SeqCacheDir bounds nothing")
	}
	if o.EvalCacheMaxBytes > 0 && o.EvalCacheDir == "" {
		return errors.New("campaign: EvalCacheMaxBytes without EvalCacheDir bounds nothing")
	}
	return nil
}

// ResolveEvalCacheDir maps the -campaign-eval-cache flag (and its size
// companion) onto Options.EvalCacheDir, failing fast — before any
// simulation — on contradictory combinations. The cache defaults on
// alongside checkpointing ("" with a checkpoint directory becomes
// <checkpoint>/evalcache), "off" disables it entirely, a relative path
// is anchored under the checkpoint directory (so cooperating workers
// sharing a checkpoint share the store without repeating an absolute
// path), and an absolute path stands alone.
func ResolveEvalCacheDir(flagVal, checkpointDir string, maxMB int64) (string, error) {
	if maxMB < 0 {
		return "", fmt.Errorf("campaign: negative eval cache bound %d MiB", maxMB)
	}
	switch {
	case flagVal == "off":
		if maxMB > 0 {
			return "", errors.New("campaign: -campaign-eval-cache-max-mb with -campaign-eval-cache=off bounds a cache that does not exist")
		}
		return "", nil
	case flagVal == "":
		if checkpointDir != "" {
			return filepath.Join(checkpointDir, "evalcache"), nil
		}
		if maxMB > 0 {
			return "", errors.New("campaign: -campaign-eval-cache-max-mb without an eval cache (set -campaign-eval-cache or -campaign-checkpoint)")
		}
		return "", nil
	case !filepath.IsAbs(flagVal):
		if checkpointDir == "" {
			return "", fmt.Errorf("campaign: relative -campaign-eval-cache %q needs -campaign-checkpoint to anchor it (or use an absolute path)", flagVal)
		}
		return filepath.Join(checkpointDir, flagVal), nil
	default:
		return flagVal, nil
	}
}

// CellResult is one cell's exploration outcome.
type CellResult struct {
	Cell Cell
	// Front is the cell's Pareto front (runtime vs max ATE) at the
	// cell's reported fidelity.
	Front []hypermapper.Observation
	// BestFeasible is the fastest configuration meeting the accuracy
	// limit in this cell.
	BestFeasible    hypermapper.Observation
	HasBestFeasible bool
	// Evaluations counts every configuration the cell's *exploration*
	// observed (screening runs included); FullFidelityEvals and
	// LowFidelityEvals split that spend by fidelity (cell-ladder
	// screening runs and intra-cell ladder screening runs both count as
	// low fidelity). The robust aggregation phase afterwards
	// cross-measures up to CandidateCount-1 foreign winners per cell at
	// full fidelity; that spend is shared campaign overhead and not part
	// of these per-cell exploration counters.
	Evaluations       int
	FullFidelityEvals int
	LowFidelityEvals  int
	// Fidelity is the fidelity the cell's reported results were explored
	// at: FidelityFull, or FidelityScreen for an unpromoted cell of the
	// cell-level ladder.
	Fidelity string
	// Promoted reports that the cell-level ladder promoted this cell
	// from screening to full-fidelity exploration.
	Promoted bool
	// Resumed reports that at least one of the cell's exploration
	// artifacts was loaded from the checkpoint store instead of being
	// recomputed. Execution provenance, not part of the deterministic
	// report surface.
	Resumed bool
	// Owner names who produced the cell's reported artifact this run:
	// the worker id (or "local" outside worker mode) when it was
	// computed here, "store" when it was loaded from a checkpoint.
	// Execution provenance, like Resumed.
	Owner string
	// SeqSource reports where the cell's rendered sequence came from —
	// a seqcache.Source string, or "" when the cell was resumed and
	// never needed its sequence. Execution provenance, like Resumed.
	SeqSource string
	// TransferBorrower marks a cell the transfer schedule warm-started
	// (wave 2); TransferDonors names the donor cells ("scenario/device")
	// it drew usable knowledge from and TransferSeeds counts the distinct
	// donor configurations its seeder borrowed (donors with zero seeds
	// mean the cell degraded to exploring from scratch). All empty for
	// anchors and transfer-off campaigns. Deterministic, part of the
	// report surface (rendered only when transfer is on).
	TransferBorrower bool
	TransferDonors   []string
	TransferSeeds    int
	// Knowledge holds the cell's extracted decision rules when
	// Options.Knowledge is set (full-fidelity cells only).
	Knowledge []string
	// Failed reports that the cell's exploration panicked and was
	// quarantined: the cell carries no front or best configuration, is
	// excluded from promotion, cross-measurement and the robust
	// aggregation, and appears in reports as a failed row. Deterministic
	// (a panic for a given seed/options either always or never happens),
	// so it is part of the report surface.
	Failed bool
	// FailureReason is the quarantined panic value, when Failed.
	FailureReason string
}

// RobustResult is the cross-scenario aggregation outcome.
type RobustResult struct {
	// Point and Config are the winning configuration.
	Point  hypermapper.Point
	Config kfusion.Config
	// Pick carries the winner's per-cell ranks and the aggregation
	// criteria it minimised.
	Pick hypermapper.RobustPick
	// PerCell holds the winner's full-fidelity metrics in every cell,
	// in grid order.
	PerCell []hypermapper.Metrics
}

// Result is a full campaign outcome.
type Result struct {
	// Cells are the per-cell results in grid order.
	Cells []CellResult
	// AccuracyLimit echoes the option used.
	AccuracyLimit float64
	// CandidateCount is the size of the deduplicated cross-cell
	// candidate set the robust configuration was selected from.
	CandidateCount int
	// Robust is the rank-aggregated cross-scenario configuration.
	Robust    RobustResult
	HasRobust bool
	// Transfer echoes Options.Transfer; the report writers render the
	// transfer provenance columns and efficiency summary only when set,
	// so transfer-off reports keep their byte surface.
	Transfer bool
	// StoppedAfter is the stage the run ended at when Options.StopAfter
	// cut it short; empty for a completed campaign. A stopped result
	// carries whatever per-cell results its completed stages produced
	// and no robust configuration.
	StoppedAfter Stage
	// SeqStats are this process's rendered-sequence cache counters:
	// summing Renders over every cooperating process proves each
	// distinct sequence was rendered exactly once per shared store.
	// Execution provenance (the render/hit split depends on scheduling),
	// never part of the deterministic report surface.
	SeqStats seqcache.Stats
	// EvalStats are this process's persistent evaluation-store counters:
	// summing Simulations over every cooperating process proves each
	// distinct (configuration, sequence, device, stride) was simulated
	// exactly once per shared store. Execution provenance like SeqStats
	// — a warm store turns simulations into disk hits.
	EvalStats evalstore.Stats
	// MemoHits and MemoMisses aggregate the in-memory memoization layer
	// over every evaluator the campaign built (cell explorations, ladder
	// rungs, cross-measurements). A miss means the memo went below its
	// memory layer — to the evaluation store when one is configured,
	// straight to simulation otherwise.
	MemoHits, MemoMisses int
	// CacheSummary echoes Options.CacheStats: when set, Report adds the
	// cache counters to the JSON surface under "caches".
	CacheSummary bool
}

// Run executes the staged campaign: Plan (validation + grid), Explore
// (per-cell exploration, screening fidelity when the cell ladder is
// on), Promote (full-fidelity re-exploration of competitive cells),
// CrossMeasure (robust candidates in every cell) and Aggregate
// (hypermapper.RobustBest). With a checkpoint store every stage's
// artifacts persist and resume; see Options.
func Run(opts Options) (*Result, error) {
	r, err := newRunner(opts)
	if err != nil {
		return nil, err
	}
	r.emitStage(ProgressStageDone, StagePlan)
	if r.opts.StopAfter == StagePlan {
		return r.result(StagePlan), nil
	}
	if r.canceled() {
		return nil, ErrCanceled
	}
	r.emitStage(ProgressStageStart, StageExplore)
	if err := r.explore(); err != nil {
		return nil, err
	}
	r.emitStage(ProgressStageDone, StageExplore)
	if r.opts.StopAfter == StageExplore {
		return r.result(StageExplore), nil
	}
	if r.canceled() {
		return nil, ErrCanceled
	}
	r.emitStage(ProgressStageStart, StagePromote)
	if err := r.promote(); err != nil {
		return nil, err
	}
	r.emitStage(ProgressStageDone, StagePromote)
	if r.opts.StopAfter == StagePromote {
		return r.result(StagePromote), nil
	}
	if r.canceled() {
		return nil, ErrCanceled
	}
	r.emitStage(ProgressStageStart, StageCrossMeasure)
	candidates, perCell, err := r.crossMeasure()
	if err != nil {
		return nil, err
	}
	r.emitStage(ProgressStageDone, StageCrossMeasure)
	if r.opts.StopAfter == StageCrossMeasure {
		res := r.result(StageCrossMeasure)
		res.CandidateCount = len(candidates)
		return res, nil
	}
	if r.canceled() {
		return nil, ErrCanceled
	}
	r.emitStage(ProgressStageStart, StageAggregate)
	res, err := r.aggregate(candidates, perCell)
	if err == nil {
		r.emitStage(ProgressStageDone, StageAggregate)
	}
	return res, err
}

// Report converts the result into the slambench campaign report.
func (r *Result) Report() *slambench.CampaignReport {
	rep := &slambench.CampaignReport{
		AccuracyLimit: r.AccuracyLimit,
		Candidates:    r.CandidateCount,
		Transfer:      r.Transfer,
		Counters: slambench.CampaignCacheSummary{
			MemoHits:         r.MemoHits,
			MemoMisses:       r.MemoMisses,
			EvalSimulations:  r.EvalStats.Simulations,
			EvalDiskHits:     r.EvalStats.DiskHits,
			EvalPublished:    r.EvalStats.Published,
			EvalDegradations: r.EvalStats.Degradations,
			EvalEvictions:    r.EvalStats.Evictions,
			SeqRenders:       r.SeqStats.Renders,
			SeqDiskHits:      r.SeqStats.DiskHits,
			SeqMemoryHits:    r.SeqStats.MemoryHits,
			SeqDegradations:  r.SeqStats.Degradations,
			SeqEvictions:     r.SeqStats.Evictions,
		},
	}
	if r.CacheSummary {
		rep.Caches = &rep.Counters
	}
	feasible := hypermapper.AccuracyLimit(r.AccuracyLimit)
	for j, c := range r.Cells {
		row := slambench.CampaignCell{
			Scenario:          c.Cell.Scenario.Name,
			Device:            c.Cell.Target.Name,
			Evaluations:       c.Evaluations,
			FullFidelityEvals: c.FullFidelityEvals,
			LowFidelityEvals:  c.LowFidelityEvals,
			FrontSize:         len(c.Front),
			Fidelity:          c.Fidelity,
			Promoted:          c.Promoted,
			Resumed:           c.Resumed,
			Owner:             c.Owner,
			SeqSource:         c.SeqSource,
			TransferBorrower:  c.TransferBorrower,
			TransferDonors:    c.TransferDonors,
			TransferSeeds:     c.TransferSeeds,
			Knowledge:         c.Knowledge,
			Failed:            c.Failed,
			FailureReason:     c.FailureReason,
			Feasible:          c.HasBestFeasible,
		}
		for _, o := range c.Front {
			row.Front = append(row.Front, slambench.CampaignFrontPoint{
				Runtime: o.M.Runtime, MaxATE: o.M.MaxATE, Power: o.M.Power,
			})
		}
		if c.HasBestFeasible {
			row.BestRuntime = c.BestFeasible.M.Runtime
			row.BestMaxATE = c.BestFeasible.M.MaxATE
			row.BestPower = c.BestFeasible.M.Power
		}
		if r.HasRobust {
			m := r.Robust.PerCell[j]
			row.RobustRuntime = m.Runtime
			row.RobustMaxATE = m.MaxATE
			row.RobustRank = r.Robust.Pick.Ranks[j]
			row.RobustFeasible = feasible(m)
		}
		rep.Cells = append(rep.Cells, row)
	}
	if r.HasRobust {
		rep.RobustConfig = FormatConfig(r.Robust.Config)
		rep.RobustWorstRank = r.Robust.Pick.WorstRank
		rep.RobustFeasibleEverywhere = r.Robust.Pick.FeasibleEverywhere
	} else {
		rep.RobustConfig = "none (no candidates)"
	}
	// Transfer-efficiency summary: the full-fidelity exploration spend of
	// warm-started borrowers against the from-scratch anchors, averaged
	// over the healthy cells of each wave. Deterministic like everything
	// above (the donor topology and every budget are pure functions of
	// the options).
	if r.Transfer {
		anchors, borrowers := 0, 0
		anchorFull, borrowerFull := 0, 0
		for _, c := range r.Cells {
			if c.Failed {
				continue
			}
			if c.TransferBorrower {
				borrowers++
				borrowerFull += c.FullFidelityEvals
				rep.TransferSeedsBorrowed += c.TransferSeeds
			} else {
				anchors++
				anchorFull += c.FullFidelityEvals
			}
		}
		rep.TransferAnchors = anchors
		rep.TransferBorrowers = borrowers
		rep.TransferAnchorFullEvals = anchorFull
		rep.TransferBorrowerFullEvals = borrowerFull
		if anchors > 0 && borrowers > 0 && anchorFull > 0 {
			perAnchor := float64(anchorFull) / float64(anchors)
			perBorrower := float64(borrowerFull) / float64(borrowers)
			rep.TransferSavingsPct = 100 * (1 - perBorrower/perAnchor)
		}
	}
	return rep
}

// FormatConfig renders a pipeline configuration compactly for reports.
func FormatConfig(cfg kfusion.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vr=%d csr=%d mu=%.3g icp=%.1e pyr=%d/%d/%d ir=%d tr=%d",
		cfg.VolumeResolution, cfg.ComputeSizeRatio, cfg.Mu, cfg.ICPThreshold,
		cfg.PyramidIterations[0], cfg.PyramidIterations[1], cfg.PyramidIterations[2],
		cfg.IntegrationRate, cfg.TrackingRate)
	return b.String()
}
