package hypermapper

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"slamgo/internal/rf"
)

// Evaluator measures one configuration (runs the SLAM pipeline on the
// modelled device). It is the expensive black box the DSE minimises calls
// to. Optimize invokes it from multiple goroutines unless
// OptimizerConfig.Workers is 1, so it must be safe for concurrent calls
// (a pure function, or one whose shared state is read-only).
type Evaluator func(Point) Metrics

// OptimizerConfig controls the two-phase exploration of Figure 2:
// random sampling to seed the model, then active learning.
type OptimizerConfig struct {
	// RandomSamples seeds the surrogate (paper: "random sampling of the
	// space"). Latin hypercube is used for coverage.
	RandomSamples int
	// ActiveIterations is the number of model-guided rounds.
	ActiveIterations int
	// BatchPerIteration evaluates the top-B acquisition candidates per
	// round.
	BatchPerIteration int
	// CandidatePool is how many unevaluated candidates are scored by the
	// surrogate per round.
	CandidatePool int
	// Objectives defines the dominance space (default RuntimeAccuracy).
	Objectives Objectives
	// Forest configures the per-objective surrogate models.
	Forest rf.ForestConfig
	// ExplorationWeight trades predicted-dominance exploitation against
	// ensemble-uncertainty exploration in the acquisition score.
	ExplorationWeight float64
	// ConstraintObjective, together with ConstraintLimit, switches the
	// acquisition into the paper's constrained mode: minimise
	// objective 0 subject to objective[ConstraintObjective] ≤ limit
	// (e.g. runtime s.t. max ATE ≤ 0.05 m). Leave both at their zero
	// values for the unconstrained hypervolume mode. Setting
	// ConstraintLimit > 0 requires ConstraintObjective ≥ 1: objective 0
	// is always the minimisation target, so constraining it is
	// contradictory and Optimize rejects the combination rather than
	// silently falling back to hypervolume mode.
	ConstraintObjective int
	// ConstraintLimit is the feasibility bound for the constrained mode.
	ConstraintLimit float64
	// Seeder, when non-nil, replaces the default Latin-hypercube
	// seeding of the random phase (LHSSeeder — the nil value and an
	// explicit LHSSeeder{} are byte-identical). WarmStartSeeder
	// concentrates the budget around donor winners for transfer-learned
	// runs. Seeders must consume the shared rng stream
	// deterministically; see Seeder.
	Seeder Seeder
	// Prior, when non-nil, blends cross-run surrogate knowledge into
	// the acquisition scores: the prior's normalised predictions are
	// rescaled onto the local run's observed objective range and mixed
	// into the surrogate means with a weight that decays as local
	// observations accumulate. The prior shapes *where the optimizer
	// samples* only — observations, fronts and Best selection never see
	// donor data.
	Prior Prior
	// BatchEval, when non-nil, replaces the default ParallelEvaluator
	// around eval for every batch of real measurements — the hook the
	// multi-fidelity ladder plugs into. It must return metrics in input
	// order and be deterministic for any internal parallelism. When set,
	// the eval argument of Optimize may be nil.
	BatchEval BatchEvaluator
	// Workers bounds the parallelism of candidate evaluation, surrogate
	// fitting and pool scoring; 0 means GOMAXPROCS, 1 is fully serial.
	// The exploration is deterministic for any value: a fixed Seed yields
	// an identical Result whatever the worker count.
	Workers int
	// Seed drives every stochastic choice.
	Seed int64
	// Log, when non-nil, receives progress lines.
	Log func(string)
}

// constrained reports whether the constrained acquisition is active.
func (c OptimizerConfig) constrained() bool {
	return c.ConstraintLimit > 0 && c.ConstraintObjective > 0
}

// DefaultOptimizerConfig returns the configuration used by the bundled
// experiments.
func DefaultOptimizerConfig() OptimizerConfig {
	return OptimizerConfig{
		RandomSamples:     20,
		ActiveIterations:  6,
		BatchPerIteration: 5,
		CandidatePool:     2000,
		Objectives:        RuntimeAccuracy,
		Forest:            rf.DefaultForestConfig(),
		ExplorationWeight: 0.1,
		Seed:              1,
	}
}

// Result is the outcome of one DSE run.
type Result struct {
	// Observations holds every evaluated configuration in order.
	Observations []Observation
	// RandomPhase is the count of observations from the random phase
	// (Observations[:RandomPhase] were random, the rest active).
	RandomPhase int
	// Front is the final Pareto front.
	Front []Observation
}

// Optimize runs the full random + active-learning exploration.
//
// The candidate-scoring hot path is flat: each round's pool is sampled
// directly into a reused row-major matrix, deduplicated against the
// evaluated set via binary keys (no per-candidate strings), and scored
// through the surrogates' rf.FlatForest compilation with PredictBatch —
// so a round allocates a handful of buffers instead of tens of
// thousands of tree-walk temporaries.
func Optimize(space *Space, eval Evaluator, cfg OptimizerConfig) (*Result, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if eval == nil && cfg.BatchEval == nil {
		return nil, errors.New("hypermapper: nil evaluator")
	}
	if cfg.Objectives == nil {
		cfg.Objectives = RuntimeAccuracy
	}
	if cfg.RandomSamples < 2 {
		return nil, errors.New("hypermapper: need ≥2 random samples")
	}
	if cfg.ConstraintLimit > 0 && cfg.ConstraintObjective <= 0 {
		return nil, errors.New("hypermapper: ConstraintLimit is set but ConstraintObjective is 0 (the primary objective); constrained mode minimises objective 0 subject to a bound on another objective, so set ConstraintObjective ≥ 1")
	}
	objDims := len(cfg.Objectives(Metrics{}))
	if cfg.ConstraintLimit > 0 && cfg.ConstraintObjective >= objDims {
		return nil, fmt.Errorf("hypermapper: ConstraintObjective %d out of range for %d objectives", cfg.ConstraintObjective, objDims)
	}
	if cfg.BatchPerIteration < 1 {
		cfg.BatchPerIteration = 1
	}
	if cfg.CandidatePool < cfg.BatchPerIteration {
		cfg.CandidatePool = cfg.BatchPerIteration * 10
	}
	if cfg.Forest.Tree.MTry <= 0 {
		// DSE spaces are low-dimensional; full-feature splits make the
		// surrogate far stronger than the d/3 regression default.
		cfg.Forest.Tree.MTry = len(space.Params)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			cfg.Log(fmt.Sprintf(format, args...))
		}
	}

	res := &Result{}
	seen := map[string]bool{}
	var keyBuf []byte
	batch := cfg.BatchEval
	if batch == nil {
		batch = ParallelEvaluator{Eval: eval, Workers: cfg.Workers}
	}

	// --- Phase 1: seeded sampling (stratified random by default,
	// donor-concentrated for warm-started runs), evaluated concurrently.
	// Deduplication and observation order are fixed before any evaluation
	// starts, so the result is independent of the worker count.
	seeder := cfg.Seeder
	if seeder == nil {
		seeder = LHSSeeder{}
	}
	var seedPts []Point
	for _, pt := range seeder.SeedPoints(space, cfg.RandomSamples, rng) {
		keyBuf = AppendKey(keyBuf[:0], pt)
		if seen[string(keyBuf)] {
			continue
		}
		seen[string(keyBuf)] = true
		seedPts = append(seedPts, pt)
	}
	for i, m := range batch.EvalAll(seedPts) {
		res.Observations = append(res.Observations, Observation{X: seedPts[i], M: m})
	}
	res.RandomPhase = len(res.Observations)
	logf("random phase: %d evaluations", res.RandomPhase)

	// --- Phase 2: active learning over the flat scoring pipeline.
	d := len(space.Params)
	var (
		poolX  = make([]float64, cfg.CandidatePool*d)       // candidate matrix, reused
		meanB  = make([]float64, cfg.CandidatePool)         // per-objective batch means
		stdB   = make([]float64, cfg.CandidatePool)         // per-objective batch stds
		optBuf = make([]float64, cfg.CandidatePool*objDims) // optimistic estimates
		uncB   = make([]float64, cfg.CandidatePool)         // summed uncertainty
		used   = make([]bool, cfg.CandidatePool)
		scorer hv2DScorer

		priorB []float64 // prior predictions, reused (nil without a Prior)
	)
	if cfg.Prior != nil {
		priorB = make([]float64, cfg.CandidatePool)
	}
	for iter := 0; iter < cfg.ActiveIterations; iter++ {
		models, ok := fitSurrogates(res.Observations, cfg)
		if !ok {
			logf("iteration %d: not enough successful runs to fit surrogates", iter)
			break
		}
		front := ParetoFront(res.Observations, cfg.Objectives)
		ref := referencePoint(res.Observations, cfg.Objectives)

		// Candidate pool: half random, half mutations of front members
		// (HyperMapper similarly mixes global and local proposals), drawn
		// straight into rows of the reused matrix. Already-evaluated
		// configurations are dropped on the spot — the binary-key probe
		// against the seen set allocates nothing — and their row is
		// overwritten by the next draw.
		rows := 0
		tryRow := func() bool {
			row := poolX[rows*d : (rows+1)*d]
			keyBuf = AppendKey(keyBuf[:0], row)
			if seen[string(keyBuf)] {
				return false
			}
			rows++
			return true
		}
		for i := 0; i < cfg.CandidatePool/2; i++ {
			space.SampleInto(poolX[rows*d:(rows+1)*d], rng)
			tryRow()
		}
		if len(front) > 0 {
			for i := 0; i < cfg.CandidatePool-cfg.CandidatePool/2; i++ {
				row := poolX[rows*d : (rows+1)*d]
				copy(row, front[rng.Intn(len(front))].X)
				space.MutateInPlace(row, 1+rng.Intn(2), rng)
				tryRow()
			}
		}
		if rows == 0 {
			break
		}

		// Score the whole pool through the flat surrogates: one batched
		// prediction per objective over the matrix, fanned across the
		// worker pool. Rows are independent, so the scored pool is
		// identical for any worker count.
		mean, std, unc := meanB[:rows], stdB[:rows], uncB[:rows]
		priorW := 0.0
		if cfg.Prior != nil {
			priorW = cfg.Prior.Weight(len(res.Observations))
		}
		for j, ff := range models.flat {
			ff.PredictBatch(poolX[:rows*d], mean, std, cfg.Workers)
			if priorW > 0 {
				// The prior predicts on its own normalised [0,1] scale;
				// rescale onto the local run's observed range for this
				// objective before mixing, so it steers the landscape
				// without importing foreign magnitudes. Row-independent,
				// so determinism across worker counts is untouched.
				if lo, hi, ok := observedRange(res.Observations, cfg.Objectives, j); ok {
					cfg.Prior.PredictInto(j, poolX[:rows*d], priorB[:rows], cfg.Workers)
					for i := 0; i < rows; i++ {
						mean[i] = (1-priorW)*mean[i] + priorW*(lo+priorB[i]*(hi-lo))
					}
				}
			}
			for i := 0; i < rows; i++ {
				optBuf[i*objDims+j] = mean[i] - cfg.ExplorationWeight*std[i]
				if j == 0 {
					unc[i] = std[i]
				} else {
					unc[i] += std[i]
				}
			}
		}

		// Greedy hypervolume-conditioned batch: each pick is scored
		// against the front *plus the batch's previous optimistic picks*,
		// so one iteration spreads across the front instead of piling
		// into a single predicted-good corner. The whole batch is
		// selected first — on the surrogate's optimistic estimates and
		// the observations frozen at the start of the iteration — and
		// only then evaluated concurrently, which keeps the selection
		// (and therefore the full exploration trace) byte-identical for
		// any worker count.
		predFront := make([][]float64, 0, len(front)+cfg.BatchPerIteration)
		for _, fo := range front {
			predFront = append(predFront, cfg.Objectives(fo.M))
		}
		bestFeasible := math.Inf(1)
		if cfg.constrained() {
			bestFeasible = bestFeasibleObjective(res.Observations, cfg)
		}
		clear(used[:rows])
		var picks []Point
		for b := 0; b < cfg.BatchPerIteration; b++ {
			// Alternate exploitation (predicted hypervolume gain) with
			// pure exploration (maximum surrogate disagreement): the
			// surrogate is only trustworthy near evaluated points, so a
			// batch must also buy information in unexplored regions.
			explore := b%2 == 1
			useHV := !explore && !cfg.constrained() && objDims == 2 &&
				len(predFront) > 0 && ref != nil
			if useHV {
				scorer.Reset(predFront, ref)
			}
			bi := -1
			bestScore := math.Inf(-1)
			for i := 0; i < rows; i++ {
				if used[i] {
					continue
				}
				opt := optBuf[i*objDims : (i+1)*objDims]
				var s float64
				switch {
				case explore:
					s = unc[i]
				case cfg.constrained():
					s = constrainedAcquisition(opt, unc[i], bestFeasible, cfg)
				case useHV:
					s = scorer.Gain(opt[0], opt[1]) + 0.01*unc[i]
				default:
					s = acquisition(opt, unc[i], predFront, ref)
				}
				if s > bestScore {
					bestScore = s
					bi = i
				}
			}
			if bi < 0 {
				break
			}
			used[bi] = true
			pt := Point(poolX[bi*d : (bi+1)*d])
			keyBuf = AppendKey(keyBuf[:0], pt)
			if seen[string(keyBuf)] {
				continue
			}
			seen[string(keyBuf)] = true
			picks = append(picks, pt.Clone())
			predFront = append(predFront, optBuf[bi*objDims:(bi+1)*objDims])
		}
		for i, m := range batch.EvalAll(picks) {
			res.Observations = append(res.Observations, Observation{X: picks[i], M: m})
		}
		logf("active iteration %d: %d total evaluations", iter, len(res.Observations))
	}

	res.Front = ParetoFront(res.Observations, cfg.Objectives)
	return res, nil
}

// surrogate bundles one forest per objective dimension, both in pointer
// form (kept for training/introspection) and as the flat inference
// engine the candidate scorer runs on.
type surrogate struct {
	forests []*rf.Forest
	flat    []*rf.FlatForest
}

func fitSurrogates(obs []Observation, cfg OptimizerConfig) (*surrogate, bool) {
	var X [][]float64
	var ys [][]float64
	for _, o := range obs {
		if o.M.Failed {
			continue
		}
		objs := cfg.Objectives(o.M)
		if ys == nil {
			ys = make([][]float64, len(objs))
		}
		X = append(X, o.X)
		for i, v := range objs {
			ys[i] = append(ys[i], v)
		}
	}
	// Five successful observations is the floor below which a lone
	// surrogate is noise. A prior-backed run keeps going on as few as
	// two: the acquisition blends in the pooled donor landscape at a
	// weight that grows exactly as local evidence thins (Prior.Weight),
	// so a warm-started cell whose reduced seeding budget was eaten by
	// failures still gets its active-learning rounds instead of
	// silently returning a seeds-only front.
	minObs := 5
	if cfg.Prior != nil {
		minObs = 2
	}
	if len(X) < minObs {
		return nil, false
	}
	s := &surrogate{}
	for _, y := range ys {
		fcfg := cfg.Forest
		fcfg.Seed = cfg.Seed + int64(len(s.forests)) + 17
		fcfg.Workers = cfg.Workers
		f, err := rf.FitForest(X, y, fcfg)
		if err != nil {
			return nil, false
		}
		s.forests = append(s.forests, f)
		s.flat = append(s.flat, f.Flatten())
	}
	return s, true
}

// observedRange returns the span of objective dimension j over the
// non-failed observations (the same population the surrogates train
// on) — the local scale prior predictions are mapped onto. ok is false
// when the range is empty or degenerate, in which case the prior is
// skipped for the dimension this iteration.
func observedRange(obs []Observation, objectives Objectives, j int) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, o := range obs {
		if o.M.Failed {
			continue
		}
		v := objectives(o.M)[j]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, hi > lo
}

// referencePoint derives the hypervolume reference from the worst
// observed value per objective (scaled out slightly).
func referencePoint(obs []Observation, objectives Objectives) []float64 {
	var ref []float64
	for _, o := range obs {
		if o.M.Failed {
			continue
		}
		v := objectives(o.M)
		if ref == nil {
			ref = append([]float64(nil), v...)
			continue
		}
		for i := range v {
			if v[i] > ref[i] {
				ref[i] = v[i]
			}
		}
	}
	for i := range ref {
		ref[i] *= 1.1
	}
	return ref
}

// bestFeasibleObjective returns the best (lowest) primary objective
// among full-fidelity observations meeting the constraint — the
// improvement baseline of the constrained acquisition, computed once
// per iteration. Low-fidelity measurements are skipped: a subsampled
// run's fake-good runtime must not raise the bar real candidates are
// scored against.
func bestFeasibleObjective(obs []Observation, cfg OptimizerConfig) float64 {
	limit := cfg.ConstraintLimit
	ci := cfg.ConstraintObjective
	best := math.Inf(1)
	for _, o := range obs {
		if o.M.Failed || o.M.LowFidelity {
			continue
		}
		v := cfg.Objectives(o.M)
		if v[ci] <= limit && v[0] < best {
			best = v[0]
		}
	}
	return best
}

// constrainedAcquisition implements the paper's feasibility-constrained
// search: predicted improvement of the primary objective over the best
// currently feasible observation, for candidates predicted feasible;
// infeasible predictions are scored by how close they come to the bound.
func constrainedAcquisition(opt []float64, unc, bestFeasible float64, cfg OptimizerConfig) float64 {
	limit := cfg.ConstraintLimit
	ci := cfg.ConstraintObjective
	if opt[ci] <= limit {
		if math.IsInf(bestFeasible, 1) {
			// Nothing feasible yet: any predicted-feasible point is gold.
			return 1000 - opt[0] + 0.05*unc
		}
		return (bestFeasible - opt[0]) + 0.05*unc
	}
	// Predicted infeasible: mildly reward near-boundary exploration.
	return -(opt[ci] - limit) + 0.02*unc
}

// acquisition scores an optimistic objective estimate against the
// (predicted) front for ≥3 objectives by dominance counting, with a
// small uncertainty bonus; without a front or reference point it is the
// uncertainty alone. The 2-objective hypervolume-gain criterion lives
// in hv2DScorer, which the pick loop drives directly (never reaching
// here with a front and reference point) so the front is sorted once
// per pick instead of once per candidate.
func acquisition(opt []float64, unc float64, frontPts [][]float64, ref []float64) float64 {
	if len(frontPts) == 0 || ref == nil {
		return unc
	}
	score := 0.0
	dominatedByAny := false
	for _, fv := range frontPts {
		if Dominates(opt, fv) {
			score += 1
		}
		if Dominates(fv, opt) {
			dominatedByAny = true
		}
	}
	if !dominatedByAny {
		score += 0.5
	}
	return score + 0.05*unc
}
