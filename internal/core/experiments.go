package core

import (
	"fmt"
	"math"
	"sort"

	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/hypermapper"
	"slamgo/internal/kfusion"
	"slamgo/internal/parallel"
	"slamgo/internal/phones"
	"slamgo/internal/rf"
	"slamgo/internal/slambench"
)

// Fig1Result is the default-configuration run with the GUI metrics
// (Figure 1's live read-outs).
type Fig1Result struct {
	Summary *slambench.Summary
}

// RunFig1 benchmarks the default configuration on the scale's sequence
// over the XU3 model.
func RunFig1(scale Scale) (*Fig1Result, error) {
	seq, err := scale.Sequence()
	if err != nil {
		return nil, err
	}
	model := device.NewModel(device.OdroidXU3())
	runner := &slambench.Runner{Model: model}
	sum, err := runner.Run(slambench.NewKFusion(kfusion.DefaultConfig(), seq), seq)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Summary: sum}, nil
}

// Fig2Options parameterise the DSE experiment.
type Fig2Options struct {
	Scale Scale
	// RandomSamples / ActiveIterations / BatchPerIteration follow the
	// optimizer; zero values use small defaults suited to the scale.
	RandomSamples     int
	ActiveIterations  int
	BatchPerIteration int
	// AccuracyLimit is the feasibility bound (paper: 0.05 m).
	AccuracyLimit float64
	Seed          int64
	// Workers bounds how many configurations are evaluated concurrently
	// (and the parallelism of surrogate fitting); 0 means GOMAXPROCS.
	// The exploration result is identical for any value.
	Workers int
	// FidelityStride > 1 enables the multi-fidelity evaluation ladder:
	// candidates are screened on a sequence subsampled by this stride
	// and only the most promising share of each batch is promoted to a
	// full-fidelity run.
	FidelityStride int
	// PromoteFraction is the promoted share per batch (default 0.25).
	PromoteFraction float64
	Log             func(string)
}

// DefaultFig2Options returns the standard experiment setup.
func DefaultFig2Options() Fig2Options {
	return Fig2Options{
		Scale:             DefaultScale(),
		RandomSamples:     20,
		ActiveIterations:  5,
		BatchPerIteration: 4,
		AccuracyLimit:     0.05,
		Seed:              1,
	}
}

// Fig2Result carries both panes of Figure 2.
type Fig2Result struct {
	Space *hypermapper.Space
	// Active is the random+active exploration (the paper's method).
	Active *hypermapper.Result
	// RandomOnly is the same budget spent purely at random (baseline).
	RandomOnly []hypermapper.Observation
	// DefaultMetrics is the stock configuration's measurement (the
	// "default configuration" marker in the scatter).
	DefaultMetrics hypermapper.Metrics
	// BestFeasible is the fastest configuration meeting the accuracy
	// limit found by the active run.
	BestFeasible    hypermapper.Observation
	HasBestFeasible bool
	// ActiveFullEvals is the number of full-fidelity simulations the
	// active run actually spent (with the multi-fidelity ladder this is
	// the promoted count, not the observation count — low-fidelity
	// screening runs are cheaper by the stride and budgeted separately).
	ActiveFullEvals int
	// ActiveLowEvals is the number of low-fidelity screening runs (0
	// without the ladder).
	ActiveLowEvals int
	// BaselineBudget is the full-fidelity simulation budget granted to
	// the random baseline — equal to ActiveFullEvals, so the comparison
	// is same-cost.
	BaselineBudget int
	// Knowledge is the decision tree + extracted rules (right pane).
	Knowledge []rf.Rule
	Tree      *rf.ClassificationTree
	// RuntimeImportance and ATEImportance are per-parameter sensitivity
	// scores (mean decrease in impurity of a forest fit on each
	// objective) — the "which knobs matter" analysis HyperMapper reports.
	RuntimeImportance map[string]float64
	ATEImportance     map[string]float64
	// AccuracyLimit echoes the option used.
	AccuracyLimit float64
}

// RunFig2 executes the full DSE experiment.
func RunFig2(opts Fig2Options) (*Fig2Result, error) {
	if opts.AccuracyLimit <= 0 {
		opts.AccuracyLimit = 0.05
	}
	seq, err := opts.Scale.Sequence()
	if err != nil {
		return nil, err
	}
	model := device.NewModel(device.OdroidXU3())
	space := DSESpace()

	// Every full-fidelity measurement flows through one content-addressed
	// memo, so a configuration re-sampled anywhere in the experiment —
	// active batches, the random-only baseline, the default marker — is
	// simulated exactly once.
	eval := hypermapper.NewMemoEvaluator(NewEvaluator(space, seq, model)).Evaluate
	// The multi-fidelity ladder: a memoized low-fidelity evaluator on the
	// stride-subsampled sequence screens every batch candidate, and only
	// the promoted share reaches the full-fidelity memo.
	var ladder *hypermapper.MultiFidelity
	if opts.FidelityStride > 1 {
		ladder = &hypermapper.MultiFidelity{
			Low:             hypermapper.NewMemoEvaluator(NewEvaluator(space, slambench.Subsample(seq, opts.FidelityStride), model)).Evaluate,
			High:            eval,
			PromoteFraction: opts.PromoteFraction,
			Rank:            FidelityRank(opts.AccuracyLimit),
			Workers:         opts.Workers,
		}
	}

	cfg := hypermapper.DefaultOptimizerConfig()
	if opts.RandomSamples > 0 {
		cfg.RandomSamples = opts.RandomSamples
	}
	if opts.ActiveIterations > 0 {
		cfg.ActiveIterations = opts.ActiveIterations
	}
	if opts.BatchPerIteration > 0 {
		cfg.BatchPerIteration = opts.BatchPerIteration
	}
	cfg.Seed = opts.Seed
	cfg.Log = opts.Log
	cfg.Workers = opts.Workers
	cfg.ConstraintObjective = 1 // MaxATE
	cfg.ConstraintLimit = opts.AccuracyLimit
	if ladder != nil {
		cfg.BatchEval = ladder
	}

	active, err := hypermapper.Optimize(space, eval, cfg)
	if err != nil {
		return nil, err
	}

	res := &Fig2Result{
		Space:         space,
		Active:        active,
		AccuracyLimit: opts.AccuracyLimit,
	}

	// Same-budget random baseline, evaluated on the same worker pool.
	// The budget is denominated in *full-fidelity simulations actually
	// spent*: without the ladder that is every observation, but with it
	// only the promoted share of each batch ran the full sequence —
	// counting observations would hand the baseline a full run for every
	// cheap screening run and silently inflate its budget.
	budget := len(active.Observations)
	if ladder != nil {
		low, high := ladder.Stats()
		res.ActiveLowEvals = low
		budget = high
	}
	if budget < 1 {
		budget = 1
	}
	res.ActiveFullEvals = budget
	res.BaselineBudget = budget
	rng := newRng(opts.Seed + 7777)
	randomPts := space.SampleN(budget, rng)
	pe := hypermapper.ParallelEvaluator{Eval: eval, Workers: opts.Workers}
	for i, m := range pe.EvalAll(randomPts) {
		res.RandomOnly = append(res.RandomOnly, hypermapper.Observation{X: randomPts[i], M: m})
	}

	// Default configuration marker.
	res.DefaultMetrics = eval(DefaultPoint(space))

	// Best feasible configuration.
	best, ok := hypermapper.Best(active.Observations,
		hypermapper.AccuracyLimit(opts.AccuracyLimit),
		func(m hypermapper.Metrics) float64 { return m.Runtime })
	res.BestFeasible = best
	res.HasBestFeasible = ok

	// Knowledge extraction over everything evaluated at full fidelity.
	// Low-fidelity screening runs are surrogate fuel only: PaperClasses
	// labels use absolute FPS/ATE thresholds, so subsampled metrics
	// would systematically mislabel the rules (and skew importance).
	var all []hypermapper.Observation
	for _, o := range append(append([]hypermapper.Observation(nil), active.Observations...), res.RandomOnly...) {
		if !o.M.LowFidelity {
			all = append(all, o)
		}
	}
	label, names := hypermapper.PaperClasses(opts.AccuracyLimit, 30, 3.0)
	tree, rules, err := hypermapper.Knowledge(space, all, label, names, 3)
	if err == nil {
		res.Tree = tree
		res.Knowledge = rules
	}

	// Parameter sensitivity from forests fit on each objective.
	res.RuntimeImportance = parameterImportance(space, all, func(m hypermapper.Metrics) float64 { return m.Runtime })
	res.ATEImportance = parameterImportance(space, all, func(m hypermapper.Metrics) float64 { return m.MaxATE })
	return res, nil
}

// parameterImportance fits a forest on one objective over the evaluated
// points and returns the named mean-decrease-in-impurity scores.
func parameterImportance(space *hypermapper.Space, obs []hypermapper.Observation, key func(hypermapper.Metrics) float64) map[string]float64 {
	var X [][]float64
	var y []float64
	for _, o := range obs {
		if o.M.Failed || o.M.LowFidelity {
			continue
		}
		X = append(X, o.X)
		y = append(y, key(o.M))
	}
	if len(X) < 10 {
		return nil
	}
	cfg := rf.DefaultForestConfig()
	cfg.Tree.MTry = len(space.Params)
	f, err := rf.FitForest(X, y, cfg)
	if err != nil {
		return nil
	}
	out := map[string]float64{}
	for i, v := range f.Importance() {
		out[space.Params[i].Name] = v
	}
	return out
}

// HeadlineResult quantifies the paper's headline claim on the XU3 model.
type HeadlineResult struct {
	// Default is the stock configuration at the nominal operating point.
	Default hypermapper.Metrics
	// TunedPerf is the best feasible configuration at the nominal point.
	TunedPerf hypermapper.Metrics
	// TunedLowPower is the same configuration at the lowest operating
	// point that still meets real time (the paper's ~1 W story); falls
	// back to nominal when no point qualifies.
	TunedLowPower      hypermapper.Metrics
	TunedPoint         string
	Speedup            float64
	PowerReduction     float64
	TunedConfig        kfusion.Config
	TunedFPS           float64
	TunedMeetsRealTime bool
}

// RunHeadline derives the headline numbers from a Fig2 exploration.
func RunHeadline(fig2 *Fig2Result, scale Scale) (*HeadlineResult, error) {
	if !fig2.HasBestFeasible {
		return nil, fmt.Errorf("core: exploration found no configuration with max ATE ≤ %.3f", fig2.AccuracyLimit)
	}
	seq, err := scale.Sequence()
	if err != nil {
		return nil, err
	}
	tunedCfg, err := ConfigFromPoint(fig2.Space, fig2.BestFeasible.X)
	if err != nil {
		return nil, err
	}
	defCfg := kfusion.DefaultConfig()

	nominal := device.NewModel(device.OdroidXU3())
	res := &HeadlineResult{
		Default:     Evaluate(seq, nominal, defCfg),
		TunedPerf:   Evaluate(seq, nominal, tunedCfg),
		TunedConfig: tunedCfg,
		TunedPoint:  "nominal",
	}
	res.TunedLowPower = res.TunedPerf

	// Sweep operating points from slowest to fastest; keep the lowest-
	// power one that still sustains the sensor rate and accuracy.
	type cand struct {
		name string
		m    hypermapper.Metrics
	}
	var feasible []cand
	for _, opName := range nominal.Points() {
		m, err := nominal.AtPoint(opName)
		if err != nil {
			continue
		}
		met := Evaluate(seq, m, tunedCfg)
		if met.Failed || met.MaxATE > fig2.AccuracyLimit {
			continue
		}
		if met.Runtime > 0 && 1/met.Runtime >= 30 {
			feasible = append(feasible, cand{opName, met})
		}
	}
	sort.Slice(feasible, func(i, j int) bool { return feasible[i].m.Power < feasible[j].m.Power })
	if len(feasible) > 0 {
		res.TunedLowPower = feasible[0].m
		res.TunedPoint = feasible[0].name
	}

	if res.TunedPerf.Runtime > 0 {
		res.Speedup = res.Default.Runtime / res.TunedPerf.Runtime
	}
	if res.TunedLowPower.Power > 0 {
		res.PowerReduction = res.Default.Power / res.TunedLowPower.Power
	}
	if res.TunedLowPower.Runtime > 0 {
		res.TunedFPS = 1 / res.TunedLowPower.Runtime
		res.TunedMeetsRealTime = res.TunedFPS >= 30
	}
	return res, nil
}

// PhoneSpeedup is one bar of Figure 3.
type PhoneSpeedup struct {
	Device  string
	Year    int
	Speedup float64
	// DefaultFPS and TunedFPS are the simulated frame rates.
	DefaultFPS, TunedFPS float64
}

// Fig3Result is the full phone-sweep outcome.
type Fig3Result struct {
	Phones                 []PhoneSpeedup
	Mean, Median, Min, Max float64
}

// RunFig3 replays the default and tuned configurations across the
// 83-phone catalogue. Per-frame kernel costs are measured once per
// configuration (they are device-independent); each phone model then
// converts them to latency.
func RunFig3(tuned kfusion.Config, scale Scale, seed int64) (*Fig3Result, error) {
	seq, err := scale.Sequence()
	if err != nil {
		return nil, err
	}
	defCosts, err := frameCosts(seq, kfusion.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tunedCosts, err := frameCosts(seq, tuned)
	if err != nil {
		return nil, err
	}

	res := &Fig3Result{Min: math.Inf(1), Max: math.Inf(-1)}
	// Each phone's replay is independent: fan the catalogue out across
	// the worker pool and aggregate in catalogue order.
	perPhone := parallel.MapOrdered(0, phones.Catalogue(seed), func(_ int, p device.Profile) PhoneSpeedup {
		m := device.NewModel(p)
		d := meanLatency(m, defCosts)
		t := meanLatency(m, tunedCosts)
		if t <= 0 {
			return PhoneSpeedup{}
		}
		return PhoneSpeedup{
			Device:     p.Name,
			Year:       p.Year,
			Speedup:    d / t,
			DefaultFPS: 1 / d,
			TunedFPS:   1 / t,
		}
	})
	var speeds []float64
	for _, ps := range perPhone {
		if ps.Speedup <= 0 {
			continue
		}
		res.Phones = append(res.Phones, ps)
		speeds = append(speeds, ps.Speedup)
		if ps.Speedup < res.Min {
			res.Min = ps.Speedup
		}
		if ps.Speedup > res.Max {
			res.Max = ps.Speedup
		}
	}
	if len(speeds) == 0 {
		return nil, fmt.Errorf("core: phone sweep produced no results")
	}
	sort.Float64s(speeds)
	for _, s := range speeds {
		res.Mean += s
	}
	res.Mean /= float64(len(speeds))
	res.Median = speeds[len(speeds)/2]
	return res, nil
}

// frameCosts runs one configuration over the sequence and returns the
// per-frame arithmetic costs.
func frameCosts(seq dataset.Sequence, cfg kfusion.Config) ([]slambench.FrameRecord, error) {
	sys := slambench.NewKFusion(cfg, seq)
	runner := &slambench.Runner{}
	sum, err := runner.Run(sys, seq)
	if err != nil {
		return nil, err
	}
	return sum.Records, nil
}

func meanLatency(m *device.Model, records []slambench.FrameRecord) float64 {
	if len(records) == 0 {
		return 0
	}
	total := 0.0
	for _, r := range records {
		total += m.ExecuteFrame(r.Cost, 1.0/30).Latency
	}
	return total / float64(len(records))
}
