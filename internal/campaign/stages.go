package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"slamgo/internal/core"
	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/evalstore"
	"slamgo/internal/hypermapper"
	"slamgo/internal/parallel"
	"slamgo/internal/seqcache"
	"slamgo/internal/sharedfs"
	"slamgo/internal/slambench"
)

// Stage names one phase of the staged campaign job model. A campaign is
// Plan → Explore → Promote → CrossMeasure → Aggregate; every stage
// consumes and emits serialisable per-cell artifacts, so a campaign
// interrupted at any stage boundary resumes from the persisted
// artifacts instead of re-simulating.
type Stage string

const (
	// StagePlan validates options and enumerates the cell grid.
	StagePlan Stage = "plan"
	// StageExplore runs every cell's exploration — at the cheap
	// CellStride screening fidelity when the cell-level ladder is on,
	// at full fidelity otherwise — and persists one artifact per cell.
	StageExplore Stage = "explore"
	// StagePromote scores the screened fronts (hypervolume against a
	// shared reference) and re-explores only the competitive cells at
	// full fidelity; unpromoted cells keep their screening artifacts.
	StagePromote Stage = "promote"
	// StageCrossMeasure measures the union of per-cell winners in every
	// cell at full fidelity, one persisted metrics vector per cell.
	StageCrossMeasure Stage = "crossmeasure"
	// StageAggregate rank-aggregates the cross-measurements into the
	// robust configuration (hypermapper.RobustBest). It is the final
	// stage, so it is not a valid Options.StopAfter value — "stop after
	// aggregate" is just a completed run (StopAfter's zero value).
	StageAggregate Stage = "aggregate"
)

// ParseStage validates a -campaign-stop-after value; the empty string
// (run to completion) is valid and parses to "". StageAggregate is
// rejected here on purpose: stopping after the last stage is the same
// as not stopping, and accepting both spellings would make
// Result.StoppedAfter ambiguous.
func ParseStage(s string) (Stage, error) {
	switch Stage(s) {
	case "", StagePlan, StageExplore, StagePromote, StageCrossMeasure:
		return Stage(s), nil
	}
	return "", fmt.Errorf("campaign: unknown stage %q (want plan, explore, promote or crossmeasure)", s)
}

// Fidelity labels for CellResult.Fidelity / the report's fid column.
const (
	// FidelityFull marks a cell whose reported exploration ran on the
	// full sequence.
	FidelityFull = "full"
	// FidelityScreen marks a cell reported at screening fidelity: its
	// exploration ran on the CellStride-subsampled sequence and the
	// cell was not promoted.
	FidelityScreen = "screen"
)

// Simulation classes passed to the test instrumentation hook.
const (
	simScreen    = "screen"     // cell-ladder screening exploration
	simFull      = "full"       // full-fidelity exploration
	simLadderLow = "ladder-low" // intra-cell ladder screening rung
	simCross     = "cross"      // cross-measurement of robust candidates
)

// cellArtifact is the persisted outcome of one cell's exploration — the
// unit of checkpoint/resume. Everything the later stages and the report
// need is here, so a resumed campaign renders byte-identically to an
// uninterrupted one without touching the pipeline.
type cellArtifact struct {
	Scenario string `json:"scenario"`
	Device   string `json:"device"`
	// Fidelity is FidelityFull or FidelityScreen.
	Fidelity string `json:"fidelity"`
	// Observations is every configuration the exploration measured, in
	// order; Front / BestFeasible are derived views stored alongside so
	// reloading needs no recomputation.
	Observations    []hypermapper.Observation `json:"observations"`
	Front           []hypermapper.Observation `json:"front"`
	BestFeasible    hypermapper.Observation   `json:"best_feasible"`
	HasBestFeasible bool                      `json:"has_best_feasible"`
	// Evaluation spend of this exploration only (a promoted cell's
	// screening spend lives in its screening artifact).
	Evaluations       int `json:"evaluations"`
	FullFidelityEvals int `json:"full_fidelity_evals"`
	LowFidelityEvals  int `json:"low_fidelity_evals"`
	// TransferBorrower marks a cell the transfer schedule assigned to
	// wave 2; TransferDonors names the donor cells ("scenario/device")
	// it drew usable knowledge from and TransferSeeds counts the
	// distinct donor configurations handed to its seeder (a borrower
	// with donors but zero seeds degraded to exploring from scratch).
	// All absent from the JSON for anchors and transfer-off campaigns.
	TransferBorrower bool     `json:"transfer_borrower,omitempty"`
	TransferDonors   []string `json:"transfer_donors,omitempty"`
	TransferSeeds    int      `json:"transfer_seeds,omitempty"`
	// Failed quarantines a cell whose exploration panicked: the panic
	// value is recorded, the artifact persists (so peers and resumed
	// runs do not re-detonate the cell), and the campaign aggregates
	// the surviving cells. Deterministic for a given seed/options, so
	// failed artifacts are byte-identical across writers like any
	// other.
	Failed        bool   `json:"failed,omitempty"`
	FailureReason string `json:"failure_reason,omitempty"`
}

// failedArtifact quarantines a panicking cell exploration. Only the
// root panic value is recorded (stacks go to the log): the value is
// deterministic for a given seed and options, stacks are not, and
// artifacts must be byte-identical across writers.
func failedArtifact(cell Cell, fidelity string, p any) *cellArtifact {
	return &cellArtifact{
		Scenario:      cell.Scenario.Name,
		Device:        cell.Target.Name,
		Fidelity:      fidelity,
		Failed:        true,
		FailureReason: fmt.Sprint(panicRoot(p)),
	}
}

// panicRoot unwraps parallel.TaskPanic chains (one wrapper per nested
// parallel region the panic crossed) to the original panic value.
func panicRoot(p any) any {
	if tp, ok := p.(*parallel.TaskPanic); ok {
		return tp.Unwrap()
	}
	return p
}

// crossArtifact is one cell's persisted cross-measurement: the robust
// candidate set measured at full fidelity, in candidate order.
type crossArtifact struct {
	Metrics []hypermapper.Metrics `json:"metrics"`
}

// cellOutcome is one cell stage's in-memory result.
type cellOutcome struct {
	art     *cellArtifact
	resumed bool
	owner   string // who produced the artifact: worker id / "local" / "store"
	err     error
}

// runner holds the state a campaign threads through its stages.
type runner struct {
	opts  Options
	space *hypermapper.Space
	cells []Cell
	store *Store // nil without CheckpointDir
	logf  func(format string, args ...any)

	anchors []int   // transfer mode: grid-diagonal anchor cells
	donors  [][]int // transfer mode: per-cell donor indices (nil = explores from scratch)

	screens  []*cellArtifact // screening artifacts (cell ladder only)
	arts     []*cellArtifact // final per-cell artifacts
	resumed  []bool          // any artifact of the cell loaded from the store
	promoted []bool          // cell promoted to full fidelity by the cell ladder
	owners   []string        // provenance: who produced the reported artifact
	cache    *seqcache.Cache // rendered-sequence cache (memory-only without SeqCacheDir)
	seqMu    sync.Mutex      // guards seqSrc
	seqSrc   []string        // provenance: where each cell's sequence came from

	evals  *evalstore.Store             // persistent evaluation store (nil without EvalCacheDir)
	memoMu sync.Mutex                   // guards memos
	memos  []*hypermapper.MemoEvaluator // every memo the run built, for stats aggregation

	progressMu sync.Mutex // serialises OnProgress callbacks (see emit)
}

// workerLabel is this process's provenance label for cells it computes.
func (r *runner) workerLabel() string {
	if r.opts.WorkerID != "" {
		return r.opts.WorkerID
	}
	return "local"
}

// newRunner is the Plan stage: validate, apply defaults, enumerate the
// grid and open the checkpoint store. Validation runs first so
// out-of-range values are rejected, not silently rewritten to defaults.
func newRunner(opts Options) (*runner, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts.applyDefaults()
	r := &runner{
		opts:  opts,
		space: core.DSESpace(),
		cells: Grid(opts.Scenarios, opts.Targets),
	}
	r.planTransfer()
	// Cells log from worker goroutines; serialise here so any callback
	// that is fine for the serial Fig2 hooks is fine for campaigns too.
	var logMu sync.Mutex
	r.logf = func(format string, args ...any) {
		if opts.Log != nil {
			logMu.Lock()
			opts.Log(fmt.Sprintf(format, args...))
			logMu.Unlock()
		}
	}
	if opts.CheckpointDir != "" {
		// In cooperative worker mode (WorkerID) every stage artifact is
		// computed under its lease; a worker waiting on a live peer polls
		// until the artifact appears or the peer's lease expires, and a
		// cancellation request is honoured on every poll turn.
		store, err := openStore(sharedfs.Config{
			Dir: opts.CheckpointDir, Worker: opts.WorkerID, LeaseTTL: opts.LeaseTTL,
			Wait: func() error {
				if r.canceled() {
					return ErrCanceled
				}
				return nil
			},
			Log: r.logf, Sleep: opts.sleepFn, Now: opts.nowFn,
		})
		if err != nil {
			return nil, err
		}
		if opts.onStore != nil {
			opts.onStore(store)
		}
		r.store = store
	}
	// The rendered-sequence cache. With SeqCacheDir it is the shared
	// content-addressed store (each distinct sequence rendered once per
	// store across all cells, stages and cooperating processes); without
	// it the cache still single-flights and memoises in-process. New
	// never fails — an unusable cache directory degrades every miss to
	// inline rendering instead of failing the campaign.
	r.cache = seqcache.New(seqcache.Options{
		Dir:      opts.SeqCacheDir,
		Worker:   r.workerLabel(),
		LeaseTTL: opts.LeaseTTL,
		MaxBytes: opts.SeqCacheMaxBytes,
		Log:      func(format string, args ...any) { r.logf(format, args...) },
		Sleep:    opts.sleepFn,
		Now:      opts.nowFn,
	})
	if opts.cacheFaults != nil {
		r.cache.InjectFaults(*opts.cacheFaults)
	}
	// The persistent evaluation store. With EvalCacheDir every simulation
	// result is published to (and looked up from) the shared
	// content-addressed store, so each distinct (configuration, sequence,
	// device, fidelity stride) is simulated once per store — across
	// cells, stages, cooperating workers, resumed runs and separate
	// campaigns. Open never fails: an unusable directory degrades every
	// lookup to inline simulation instead of failing the campaign.
	if opts.EvalCacheDir != "" {
		r.evals = evalstore.Open(evalstore.Options{
			Dir:      opts.EvalCacheDir,
			Worker:   r.workerLabel(),
			LeaseTTL: opts.LeaseTTL,
			MaxBytes: opts.EvalCacheMaxBytes,
			Log:      func(format string, args ...any) { r.logf(format, args...) },
			Sleep:    opts.sleepFn,
			Now:      opts.nowFn,
		})
		if opts.evalFaults != nil {
			r.evals.InjectFaults(*opts.evalFaults)
		}
	}
	n := len(r.cells)
	r.screens = make([]*cellArtifact, n)
	r.arts = make([]*cellArtifact, n)
	r.resumed = make([]bool, n)
	r.promoted = make([]bool, n)
	r.owners = make([]string, n)
	r.seqSrc = make([]string, n)
	return r, nil
}

// cellSeed derives a cell's exploration seed as a fixed function of the
// campaign seed and the grid index, so shard order cannot leak into any
// cell's exploration.
func cellSeed(campaignSeed int64, index int) int64 {
	return campaignSeed + int64(index+1)*9973
}

// sequence pulls the cell's rendered sequence through the cache, keyed
// by the content address of its render inputs — so cells sharing a
// scenario share one immutable in-memory sequence, stages reuse it, and
// with a shared cache directory cooperating processes render each
// distinct sequence exactly once between them. Resumed cells render (or
// load) lazily only if cross-measurement needs them. The first
// acquisition's source is recorded as the cell's provenance (later
// stages re-acquiring the same key are in-process memory hits).
func (r *runner) sequence(cell Cell) (dataset.Sequence, error) {
	seq, src, err := r.cache.Sequence(cell.Scenario.Scale.CacheKey(), cell.Scenario.Scale.Sequence)
	if err != nil {
		return nil, err
	}
	r.seqMu.Lock()
	if r.seqSrc[cell.Index] == "" {
		r.seqSrc[cell.Index] = string(src)
	}
	r.seqMu.Unlock()
	return seq, nil
}

// evaluator builds one campaign evaluator: the cell's pipeline on seq
// subsampled to stride (1 runs the full sequence), memoised in process
// and backed by the persistent evaluation store when one is configured.
// stride is part of every store key, so a subsampled result can never
// answer a full-fidelity lookup. Under the memo sits the test hook that
// counts actual pipeline simulations as class, so cache hits and
// checkpoint loads are never counted. Every memo is registered so the
// run's hit/miss counters can be aggregated into the result.
func (r *runner) evaluator(cell Cell, seq dataset.Sequence, stride int, class string) *hypermapper.MemoEvaluator {
	eval := core.NewEvaluator(r.space, slambench.Subsample(seq, stride), device.NewModel(cell.Target))
	if hook := r.opts.observeSimulation; hook != nil {
		base := eval
		eval = func(pt hypermapper.Point) hypermapper.Metrics {
			hook(cell.Index, class)
			return base(pt)
		}
	}
	var tier hypermapper.ResultTier
	if r.evals != nil {
		tier = r.evals.Scope(cell.Scenario.Scale.CacheKey(), deviceKey(cell.Target), stride)
	}
	m := hypermapper.NewTieredMemoEvaluator(eval, tier)
	r.memoMu.Lock()
	r.memos = append(r.memos, m)
	r.memoMu.Unlock()
	return m
}

// deviceKey is the device identity in evaluation-store keys: the full
// rendered profile — the same `%+v` identity artifactName hashes — so
// two targets that share a name but differ in any modelled parameter
// never share records.
func deviceKey(p device.Profile) string {
	return fmt.Sprintf("%+v", p)
}

// artifactName keys a cell's exploration artifact: the fidelity kind,
// the grid index, and a content hash of everything that determines the
// artifact's bytes — the cell spec, the derived seed, and the
// exploration options of that fidelity. Workers and Log are
// deliberately excluded (results are bit-identical for any worker
// count, so a campaign interrupted under -workers 1 resumes under
// -workers 8), and so are the promotion-policy knobs
// (CellPromoteFraction, MaxFrontCandidates) that decide *whether* a
// cell's stage runs, never what it produces — changing the promoted
// share on resume reuses every overlapping artifact.
func (r *runner) artifactName(cell Cell, fidelity string) string {
	o := r.opts
	h := sha256.New()
	fmt.Fprintf(h, "v%d|%s|", storeVersion, fidelity)
	fmt.Fprintf(h, "scenario=%s|scale=%+v|target=%+v|", cell.Scenario.Name, cell.Scenario.Scale, cell.Target)
	fmt.Fprintf(h, "seed=%d|cellseed=%d|", o.Seed, cellSeed(o.Seed, cell.Index))
	fmt.Fprintf(h, "explore=%d/%d/%d|limit=%g|",
		o.RandomSamples, o.ActiveIterations, o.BatchPerIteration, o.AccuracyLimit)
	if fidelity == FidelityScreen {
		fmt.Fprintf(h, "cellstride=%d|", o.CellStride)
	} else {
		fmt.Fprintf(h, "mf=%d/%g|", o.FidelityStride, o.PromoteFraction)
	}
	// A warm-started borrower's artifact depends on its donor topology
	// and reduced seeding budget, so those enter its key — and only its:
	// anchors and transfer-off cells keep their pre-transfer names, so a
	// transfer-off campaign resumes a transfer-on store's anchors and
	// vice versa.
	if donors := r.transferDonors(cell, fidelity); donors != nil {
		fmt.Fprintf(h, "transfer=%v/%d|", donors, o.TransferSeeds)
	}
	return fmt.Sprintf("%s-c%03d-%s", fidelity, cell.Index, hex.EncodeToString(h.Sum(nil))[:16])
}

// crossName keys a cell's cross-measurement artifact on the cell spec
// and the candidate set (candHash); the metrics are seed-independent
// pure measurements, so the exploration seed is not part of the key.
func (r *runner) crossName(cell Cell, candHash string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|cross|scenario=%s|scale=%+v|target=%+v|cands=%s|",
		storeVersion, cell.Scenario.Name, cell.Scenario.Scale, cell.Target, candHash)
	return fmt.Sprintf("cross-c%03d-%s", cell.Index, hex.EncodeToString(h.Sum(nil))[:16])
}

// explore is the Explore stage: every cell's exploration at screening
// fidelity when the cell ladder is on, at full fidelity otherwise.
// With Options.Transfer it runs as two waves — anchors from scratch,
// then borrowers warm-started from the anchors (see transfer.go); the
// wave boundary is a plain artifact dependency, so resume, takeover and
// quarantine behave exactly as in the flat schedule.
func (r *runner) explore() error {
	fidelity := r.exploreFidelity()
	if !r.opts.Transfer {
		return r.exploreWave(allIndices(len(r.cells)), fidelity)
	}
	if err := r.exploreWave(r.anchors, fidelity); err != nil {
		return err
	}
	var borrowers []int
	for i := range r.cells {
		if r.donors[i] != nil {
			borrowers = append(borrowers, i)
		}
	}
	return r.exploreWave(borrowers, fidelity)
}

// exploreWave runs one explore fan-out over the given cell indices.
func (r *runner) exploreWave(idxs []int, fidelity string) error {
	outs := parallel.MapOrdered(r.opts.Workers, idxs, func(_ int, idx int) *cellOutcome {
		return r.cellStage(StageExplore, r.cells[idx], fidelity)
	})
	for k, idx := range idxs {
		o := outs[k]
		if o.err != nil {
			return o.err
		}
		if fidelity == FidelityScreen {
			r.screens[idx] = o.art
		} else {
			r.arts[idx] = o.art
		}
		r.resumed[idx] = r.resumed[idx] || o.resumed
		r.owners[idx] = o.owner
	}
	return nil
}

// allIndices enumerates 0..n-1 (the flat explore schedule).
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// cellStage produces one cell's exploration artifact at the given
// fidelity: loaded from the checkpoint store when a peer (or a prior
// run) completed it, computed here otherwise (see checkpointed).
func (r *runner) cellStage(stage Stage, cell Cell, fidelity string) *cellOutcome {
	out := &cellOutcome{}
	out.art, out.resumed, out.err = checkpointed(r, r.artifactName(cell, fidelity),
		func(a *cellArtifact) bool { return a.Fidelity == fidelity },
		func() (*cellArtifact, error) { return r.exploreCellQuarantined(cell, fidelity) })
	switch {
	case out.err != nil:
	case out.resumed:
		out.owner = "store"
		r.logf("cell %d (%s on %s): resumed %s exploration from checkpoint",
			cell.Index, cell.Scenario.Name, cell.Target.Name, fidelity)
	case out.art.Failed:
		out.owner = r.workerLabel()
		r.logf("cell %d (%s on %s): %s exploration FAILED (quarantined): %s",
			cell.Index, cell.Scenario.Name, cell.Target.Name, fidelity, out.art.FailureReason)
	default:
		out.owner = r.workerLabel()
		r.logf("cell %d (%s on %s): %s exploration, %d evaluations, front %d",
			cell.Index, cell.Scenario.Name, cell.Target.Name, fidelity,
			out.art.Evaluations, len(out.art.Front))
	}
	r.emitCell(stage, cell, out)
	return out
}

// exploreCellQuarantined contains a panicking exploration: the panic —
// wherever in the pipeline, optimizer or surrogate it detonated — is
// recovered here on this cell's worker slot, recorded as a failed
// artifact, and the campaign carries on with the surviving cells.
// Non-panic errors (a sequence that cannot render, a store fault) still
// abort the campaign: they signal broken infrastructure, not one
// poisoned configuration.
func (r *runner) exploreCellQuarantined(cell Cell, fidelity string) (art *cellArtifact, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.logf("cell %d (%s on %s): panic quarantined: %v",
				cell.Index, cell.Scenario.Name, cell.Target.Name, p)
			art, err = failedArtifact(cell, fidelity, p), nil
		}
	}()
	return r.exploreCell(cell, fidelity)
}

// exploreCell runs one cell's constrained Fig2-style exploration at the
// given fidelity and packages the outcome as an artifact.
func (r *runner) exploreCell(cell Cell, fidelity string) (*cellArtifact, error) {
	seq, err := r.sequence(cell)
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s/%s: %w", cell.Scenario.Name, cell.Target.Name, err)
	}
	// The screening rung of the cell ladder runs the whole exploration
	// on the CellStride-subsampled sequence, with no intra-cell ladder on
	// top — the workload is already cheap by the stride.
	stride, class := 1, simFull
	if fidelity == FidelityScreen {
		stride, class = r.opts.CellStride, simScreen
	}
	eval := r.evaluator(cell, seq, stride, class).Evaluate

	cfg := hypermapper.DefaultOptimizerConfig()
	cfg.RandomSamples = r.opts.RandomSamples
	cfg.ActiveIterations = r.opts.ActiveIterations
	cfg.BatchPerIteration = r.opts.BatchPerIteration
	cfg.Seed = cellSeed(r.opts.Seed, cell.Index)
	cfg.Workers = r.opts.Workers
	cfg.ConstraintObjective = 1 // MaxATE
	cfg.ConstraintLimit = r.opts.AccuracyLimit
	var ladder *hypermapper.MultiFidelity
	if fidelity == FidelityFull && r.opts.FidelityStride > 1 {
		// Full fidelity with the intra-cell ladder: every candidate is
		// screened on the FidelityStride-subsampled sequence and only the
		// promoted share runs on the full one.
		ladder = &hypermapper.MultiFidelity{
			Low:             r.evaluator(cell, seq, r.opts.FidelityStride, simLadderLow).Evaluate,
			High:            eval,
			PromoteFraction: r.opts.PromoteFraction,
			Rank:            core.FidelityRank(r.opts.AccuracyLimit),
			Workers:         r.opts.Workers,
		}
		cfg.BatchEval = ladder
	}
	// Warm-started borrower: concentrate a reduced seeding budget around
	// the donors' winners and bias acquisition with a prior pooled from
	// their observation logs. Donor knowledge only steers sampling — the
	// borrower's artifact holds its own measurements exclusively. When
	// every donor degraded (quarantined, or no usable full-fidelity
	// observations) the cell explores from scratch on the full budget.
	var transferDonors []string
	var transferSeeds int
	transferBorrower := false
	if donors := r.transferDonors(cell, fidelity); donors != nil {
		transferBorrower = true
		donorSets, donorPoints, labels := r.donorData(cell, fidelity, donors)
		if len(donorPoints) > 0 {
			transferDonors, transferSeeds = labels, len(donorPoints)
			cfg.RandomSamples = r.opts.TransferSeeds
			if r.opts.transferExtraRound() {
				// Reinvest part of the freed seeding budget in one extra
				// model-guided round — granted only when the total still
				// clears the savings bar (see transferExtraRound).
				cfg.ActiveIterations++
			}
			cfg.Seeder = hypermapper.WarmStartSeeder{Donors: donorPoints, Fraction: warmFraction}
			if prior, ok := hypermapper.NewForestPrior(donorSets, hypermapper.RuntimeAccuracy,
				hypermapper.PriorConfig{Seed: cfg.Seed, Workers: cfg.Workers}); ok {
				cfg.Prior = prior
			}
			r.logf("cell %d (%s on %s): warm start from %d donors, %d seed configurations",
				cell.Index, cell.Scenario.Name, cell.Target.Name, len(labels), transferSeeds)
		}
	}
	active, err := hypermapper.Optimize(r.space, eval, cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s/%s: %w", cell.Scenario.Name, cell.Target.Name, err)
	}

	art := &cellArtifact{
		Scenario:          cell.Scenario.Name,
		Device:            cell.Target.Name,
		Fidelity:          fidelity,
		Observations:      active.Observations,
		Front:             active.Front,
		Evaluations:       len(active.Observations),
		FullFidelityEvals: len(active.Observations),
		TransferBorrower:  transferBorrower,
		TransferDonors:    transferDonors,
		TransferSeeds:     transferSeeds,
	}
	if fidelity == FidelityScreen {
		// Screening runs cost a CellStride-th of a full simulation; they
		// are the cell's low-fidelity spend, not full-fidelity evals.
		art.FullFidelityEvals = 0
		art.LowFidelityEvals = len(active.Observations)
	}
	if ladder != nil {
		low, high := ladder.Stats()
		art.LowFidelityEvals = low
		art.FullFidelityEvals = high
	}
	art.BestFeasible, art.HasBestFeasible = hypermapper.Best(active.Observations,
		hypermapper.AccuracyLimit(r.opts.AccuracyLimit),
		func(m hypermapper.Metrics) float64 { return m.Runtime })
	return art, nil
}

// promote is the Promote stage of the cell-level ladder: score every
// screened front's hypervolume against a shared reference, promote the
// top CellPromoteFraction of cells (index-tie-broken, like the
// intra-cell ladder) and re-explore only those at full fidelity.
// Without the cell ladder every cell is already at full fidelity and
// the stage is a no-op. The decision is a pure function of the
// screening artifacts, so a resumed campaign re-derives the identical
// promoted set instead of persisting it.
func (r *runner) promote() error {
	if r.opts.CellStride <= 1 {
		return nil
	}
	fronts := make([][]hypermapper.Observation, len(r.cells))
	for i, s := range r.screens {
		fronts[i] = s.Front
	}
	hv := hypermapper.FrontHypervolumes(fronts, hypermapper.RuntimeAccuracy)
	// PromoteTopFraction takes lower-is-better scores; bigger dominated
	// hypervolume means a more competitive front.
	scores := make([]float64, len(hv))
	for i, v := range hv {
		scores[i] = -v
	}
	// A quarantined screen has no front to score; drop it from the
	// promoted set rather than re-detonating the cell at full fidelity.
	// Pure function of the (persisted) screening artifacts, so resumed
	// runs and every cooperating worker derive the same set.
	chosen := hypermapper.PromoteTopFraction(scores, r.opts.CellPromoteFraction)
	live := chosen[:0]
	for _, idx := range chosen {
		if !r.screens[idx].Failed {
			live = append(live, idx)
		}
	}
	chosen = live
	r.logf("promote: %d of %d cells promoted to full fidelity", len(chosen), len(r.cells))

	outs := parallel.MapOrdered(r.opts.Workers, chosen, func(_ int, idx int) *cellOutcome {
		return r.cellStage(StagePromote, r.cells[idx], FidelityFull)
	})
	for k, idx := range chosen {
		if outs[k].err != nil {
			return outs[k].err
		}
		r.arts[idx] = outs[k].art
		r.promoted[idx] = true
		r.resumed[idx] = r.resumed[idx] || outs[k].resumed
		r.owners[idx] = outs[k].owner
	}
	for i := range r.cells {
		if r.arts[i] == nil {
			r.arts[i] = r.screens[i]
		}
	}
	return nil
}

// crossMeasure is the CrossMeasure stage: build the robust candidate
// set (the default configuration plus every cell's best feasible and
// leading front members, deduplicated in grid order) and measure every
// candidate in every cell at full fidelity. Cells explored at full
// fidelity preload their cross-measurement memo from the explore
// artifact, so home-cell repeats cost a map probe; per-cell metric
// vectors are persisted so a completed stage is never re-run on
// resume. The cell is the unit of distribution: in cooperative worker
// mode each cell's vector is computed under its cross-artifact lease
// (candidates fan out over the pool inside the cell), and quarantined
// cells are skipped entirely — their vector stays nil and the robust
// aggregation ranks only the survivors.
func (r *runner) crossMeasure() ([]hypermapper.Point, [][]hypermapper.Metrics, error) {
	var candidates []hypermapper.Point
	seen := map[string]bool{}
	add := func(pt hypermapper.Point) {
		key := string(hypermapper.AppendKey(make([]byte, 0, 8*len(pt)), pt))
		if !seen[key] {
			seen[key] = true
			candidates = append(candidates, pt.Clone())
		}
	}
	add(core.DefaultPoint(r.space))
	for _, art := range r.arts {
		if art.Failed {
			continue // quarantined: no front, no best, nothing to offer
		}
		if art.HasBestFeasible {
			add(art.BestFeasible.X)
		}
		for i, o := range art.Front {
			if i >= r.opts.MaxFrontCandidates {
				break
			}
			add(o.X)
		}
	}

	ch := sha256.New()
	for _, pt := range candidates {
		ch.Write(hypermapper.AppendKey(nil, pt))
	}
	candHash := hex.EncodeToString(ch.Sum(nil))[:16]

	perCell := make([][]hypermapper.Metrics, len(r.cells))
	outs := parallel.MapOrdered(r.opts.Workers, r.cells, func(j int, cell Cell) error {
		if r.arts[j].Failed {
			return nil
		}
		metrics, err := r.crossCell(j, cell, candidates, candHash)
		if err != nil {
			return err
		}
		perCell[j] = metrics
		return nil
	})
	for _, err := range outs {
		if err != nil {
			return nil, nil, err
		}
	}
	return candidates, perCell, nil
}

// crossCell produces one cell's cross-measurement vector: loaded from
// the store when a peer (or prior run) measured it, measured here
// otherwise — under the cell's lease in cooperative worker mode.
func (r *runner) crossCell(j int, cell Cell, candidates []hypermapper.Point, candHash string) ([]hypermapper.Metrics, error) {
	ca, resumed, err := checkpointed(r, r.crossName(cell, candHash),
		func(ca crossArtifact) bool { return len(ca.Metrics) == len(candidates) },
		func() (crossArtifact, error) { return r.measureCell(j, cell, candidates) })
	if err != nil {
		return nil, err
	}
	if resumed {
		r.logf("cell %d (%s on %s): resumed cross-measurement from checkpoint",
			cell.Index, cell.Scenario.Name, cell.Target.Name)
	}
	r.emit(ProgressEvent{
		Kind: ProgressCellDone, Stage: StageCrossMeasure, Cell: cell.Index,
		Scenario: cell.Scenario.Name, Device: cell.Target.Name, Resumed: resumed,
	})
	return ca.Metrics, nil
}

// measureCell measures every candidate in the cell at full fidelity.
// Individual measurements are quarantined: a candidate that detonates
// the pipeline in this cell yields Failed metrics (infeasible everywhere
// downstream) instead of killing the campaign.
func (r *runner) measureCell(j int, cell Cell, candidates []hypermapper.Point) (crossArtifact, error) {
	seq, err := r.sequence(cell)
	if err != nil {
		return crossArtifact{}, fmt.Errorf("campaign: cell %s/%s: %w", cell.Scenario.Name, cell.Target.Name, err)
	}
	memo := r.evaluator(cell, seq, 1, simCross)
	if art := r.arts[j]; art.Fidelity == FidelityFull {
		// The shared donor/preload filter (hypermapper.FullObservations)
		// drops LowFidelity and Failed observations; MemoEvaluator.Preload
		// re-applies the low-fidelity guard itself, so neither this call
		// site nor any future one can leak a subsampled metric into a
		// full-fidelity memo.
		memo.Preload(hypermapper.FullObservations(art.Observations))
	}
	metrics := parallel.MapOrdered(r.opts.Workers, candidates, func(_ int, pt hypermapper.Point) hypermapper.Metrics {
		return measureQuarantined(memo.Evaluate, pt)
	})
	return crossArtifact{Metrics: metrics}, nil
}

// measureQuarantined contains a panicking cross-measurement: the
// candidate is reported as Failed in this cell (AccuracyLimit and
// RobustBest already treat Failed metrics as infeasible), deterministic
// for a given candidate/cell like any other measurement.
func measureQuarantined(eval hypermapper.Evaluator, pt hypermapper.Point) (m hypermapper.Metrics) {
	defer func() {
		if p := recover(); p != nil {
			m = hypermapper.Metrics{Failed: true}
		}
	}()
	return eval(pt)
}

// aggregate is the Aggregate stage: rank-aggregate the per-cell
// cross-measurements into the robust configuration. Quarantined cells
// have no cross-measurement vector; the aggregation ranks the
// surviving cells only, then remaps the winner's ranks and metrics
// back to grid length (rank 0 / Failed metrics in the quarantined
// slots) so the report keeps one row per cell.
func (r *runner) aggregate(candidates []hypermapper.Point, perCell [][]hypermapper.Metrics) (*Result, error) {
	res := r.result("")
	res.CandidateCount = len(candidates)
	var live []int
	for j := range r.cells {
		if perCell[j] != nil {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return res, nil // every cell quarantined: no robust pick
	}
	perCandidate := make([][]hypermapper.Metrics, len(candidates))
	for i := range perCandidate {
		row := make([]hypermapper.Metrics, len(live))
		for k, j := range live {
			row[k] = perCell[j][i]
		}
		perCandidate[i] = row
	}
	pick, ok := hypermapper.RobustBest(perCandidate,
		hypermapper.AccuracyLimit(r.opts.AccuracyLimit),
		func(m hypermapper.Metrics) float64 { return m.Runtime })
	if !ok {
		return res, nil
	}
	cfg, err := core.ConfigFromPoint(r.space, candidates[pick.Index])
	if err != nil {
		return nil, fmt.Errorf("campaign: robust candidate invalid: %w", err)
	}
	gridRanks := make([]int, len(r.cells))
	gridMetrics := make([]hypermapper.Metrics, len(r.cells))
	for j := range gridMetrics {
		gridMetrics[j] = hypermapper.Metrics{Failed: true}
	}
	for k, j := range live {
		gridRanks[j] = pick.Ranks[k]
		gridMetrics[j] = perCandidate[pick.Index][k]
	}
	pick.Ranks = gridRanks
	res.Robust = RobustResult{
		Point:   candidates[pick.Index],
		Config:  cfg,
		Pick:    pick,
		PerCell: gridMetrics,
	}
	res.HasRobust = true
	r.logf("robust configuration: candidate %d of %d, worst rank %d, feasible everywhere %v",
		pick.Index, len(candidates), pick.WorstRank, pick.FeasibleEverywhere)
	return res, nil
}

// result materialises the per-cell results available so far (stopped
// runs included) from the stage artifacts.
func (r *runner) result(stopped Stage) *Result {
	res := &Result{AccuracyLimit: r.opts.AccuracyLimit, StoppedAfter: stopped,
		Transfer: r.opts.Transfer, SeqStats: r.cache.Stats(),
		CacheSummary: r.opts.CacheStats}
	if r.evals != nil {
		res.EvalStats = r.evals.Stats()
	}
	r.memoMu.Lock()
	for _, m := range r.memos {
		h, miss := m.Stats()
		res.MemoHits += h
		res.MemoMisses += miss
	}
	r.memoMu.Unlock()
	for i := range r.cells {
		art := r.arts[i]
		if art == nil {
			art = r.screens[i]
		}
		if art == nil {
			continue // stopped before any exploration artifact existed
		}
		c := CellResult{
			Cell:              r.cells[i],
			Front:             art.Front,
			BestFeasible:      art.BestFeasible,
			HasBestFeasible:   art.HasBestFeasible,
			Evaluations:       art.Evaluations,
			FullFidelityEvals: art.FullFidelityEvals,
			LowFidelityEvals:  art.LowFidelityEvals,
			Fidelity:          art.Fidelity,
			Promoted:          r.promoted[i],
			Resumed:           r.resumed[i],
			Owner:             r.owners[i],
			SeqSource:         r.seqSrc[i],
			TransferBorrower:  art.TransferBorrower,
			TransferDonors:    art.TransferDonors,
			TransferSeeds:     art.TransferSeeds,
			Failed:            art.Failed,
			FailureReason:     art.FailureReason,
		}
		// The exploration transfers across cells, the explanation stays
		// local: decision rules are extracted from this cell's own
		// full-fidelity observations only (screening metrics would
		// mislabel PaperClasses' absolute thresholds, so screened cells
		// report no rules). Opt-in because the rule strings enlarge the
		// JSON surface.
		if r.opts.Knowledge && !art.Failed && art.Fidelity == FidelityFull {
			label, names := hypermapper.PaperClasses(r.opts.AccuracyLimit, 30, 3.0)
			full := hypermapper.FullObservations(art.Observations)
			if _, rules, err := hypermapper.Knowledge(r.space, full, label, names, 3); err == nil {
				for _, rule := range rules {
					c.Knowledge = append(c.Knowledge, rule.String())
				}
			}
		}
		// A promoted cell spent its screening budget too; fold it into
		// the cell's totals (the full-explore artifact stays pure so it
		// is shared with campaigns that never screened).
		if r.promoted[i] && r.screens[i] != nil && art.Fidelity == FidelityFull {
			c.Evaluations += r.screens[i].Evaluations
			c.LowFidelityEvals += r.screens[i].LowFidelityEvals
		}
		res.Cells = append(res.Cells, c)
	}
	return res
}
