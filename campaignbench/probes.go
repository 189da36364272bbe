package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"slamgo/internal/campaign"
	"slamgo/internal/core"
	"slamgo/internal/dataset"
	"slamgo/internal/device"
	"slamgo/internal/evalstore"
	"slamgo/internal/hypermapper"
	"slamgo/internal/kfusion"
	"slamgo/internal/rf"
	"slamgo/internal/seqcache"
	"slamgo/internal/serve"
	"slamgo/internal/sharedfs"
	"slamgo/internal/slambench"
)

// Probe sizes: enough calls for a steady median, few enough that the
// probes stay a small share of a traced run.
const (
	kernelProbePoints = 4   // DSE points run frame by frame and through core.Evaluate
	storeProbeKeys    = 64  // evaluation records published, then read back
	leaseProbeRounds  = 200 // TryAcquire+Release round trips
	fitProbeRounds    = 5   // FitForest calls
	predictPool       = 2000
)

// probes measures the layers campaign.Run hides, by calling their
// public functions with the workload's own sequences, device targets
// and seed. warmEval is an evaluation store the workload's campaign
// has already filled.
func (b *bench) probes(spec serve.CampaignSpec, warmEval string) {
	opts, err := spec.Options()
	mustf(err, "campaign spec")
	seqs := b.probeSeqcache(opts.Scenarios)
	b.probeKernels(seqs, opts.Targets[0])
	b.probeEvalstore(opts.Scenarios[0].Scale.CacheKey())
	b.probeLeases()
	obs := b.probeOptimize(opts, seqs[0], warmEval)
	b.probeForest(obs)
}

// probeSeqcache renders each scenario's sequence into an empty cache
// (render and publish) and loads it back through a second cache over
// the same directory (verified disk hit).
func (b *bench) probeSeqcache(scenarios []campaign.Scenario) []*dataset.MemorySequence {
	dir := b.dir("probe-seqcache")
	var renders, hits []float64
	var seqs []*dataset.MemorySequence
	for _, sc := range scenarios {
		key := sc.Scale.CacheKey()
		var seq *dataset.MemorySequence
		var err error
		d := b.tr.time("probe", "seqcache.render", 0, func() {
			seq, _, err = seqcache.New(seqcache.Options{Dir: dir}).Sequence(key, sc.Scale.Sequence)
		})
		mustf(err, "seqcache probe: rendering %s", sc.Name)
		renders = append(renders, ms(d))
		seqs = append(seqs, seq)

		var src seqcache.Source
		d = b.tr.time("probe", "seqcache.hit", 0, func() {
			_, src, err = seqcache.New(seqcache.Options{Dir: dir}).Sequence(key, func() (*dataset.MemorySequence, error) {
				return nil, fmt.Errorf("seqcache probe: %s was not served from disk", sc.Name)
			})
		})
		b.check(err == nil && src == seqcache.SourceDisk, "seqcache probe: %s not a disk hit (source %q, %v)", sc.Name, src, err)
		hits = append(hits, ms(d))
	}
	b.add("seqcache.render_ms", median(renders), "ms")
	b.add("seqcache.hit_ms", median(hits), "ms")
	return seqs
}

// probeKernels runs a seeded sample of DSE points through the
// KinectFusion pipeline frame by frame, reading each frame's kernel
// times, and through core.Evaluate, measuring its time and allocation.
func (b *bench) probeKernels(seqs []*dataset.MemorySequence, target device.Profile) {
	space := core.DSESpace()
	rng := rand.New(rand.NewSource(b.seed))
	model := device.NewModel(target)
	var kernels [4]time.Duration
	frames := 0
	var evalMS, evalMB []float64
	for i := 0; len(evalMS) < kernelProbePoints; i++ {
		cfg, err := core.ConfigFromPoint(space, space.Sample(rng))
		if err != nil {
			continue
		}
		seq := seqs[i%len(seqs)]
		f0, err := seq.Frame(0)
		mustf(err, "kernel probe")
		p, err := kfusion.New(cfg, seq.Intrinsics(), f0.GroundTruth)
		mustf(err, "kernel probe")
		for fi := 0; fi < seq.Len(); fi++ {
			f, err := seq.Frame(fi)
			mustf(err, "kernel probe")
			var res *kfusion.FrameResult
			b.tr.time("probe", "kfusion.frame", 0, func() { res, err = p.ProcessFrame(f.Depth) })
			mustf(err, "kernel probe")
			for k, d := range res.KernelTimes {
				kernels[k] += d
			}
			frames++
		}

		before := readRuntime()
		d := b.tr.time("probe", "core.evaluate", 0, func() { core.Evaluate(seq, model, cfg) })
		evalMS = append(evalMS, ms(d))
		evalMB = append(evalMB, mb(readRuntime().allocs-before.allocs))
	}
	for k, name := range []string{"preprocess", "track", "integrate", "raycast"} {
		b.add("kfusion."+name+"_ms", ms(kernels[k])/float64(frames), "ms")
	}
	b.add("core.eval_ms", median(evalMS), "ms")
	b.add("core.eval_alloc_mb", median(evalMB), "MB")
}

// probeEvalstore publishes seeded records into an empty store through
// Scope.Evaluate (lease, encode, atomic write), then reads each back
// through a second store over the same directory (verified disk hit).
func (b *bench) probeEvalstore(seqKey string) {
	dir := b.dir("probe-evalstore")
	space := core.DSESpace()
	rng := rand.New(rand.NewSource(b.seed))
	pts := map[string]hypermapper.Point{}
	want := map[string]hypermapper.Metrics{}
	scope := evalstore.Open(evalstore.Options{Dir: dir}).Scope(seqKey, "probe-device", 1)
	var publish []float64
	for len(pts) < storeProbeKeys {
		pt := space.Sample(rng)
		key := scope.Key(pt)
		if _, dup := pts[key]; dup {
			continue
		}
		m := hypermapper.Metrics{Runtime: rng.Float64(), MaxATE: rng.Float64() / 10, Power: rng.Float64(), Energy: rng.Float64()}
		pts[key], want[key] = pt, m
		d := b.tr.time("probe", "evalstore.publish", 0, func() {
			scope.Evaluate(pt, func(hypermapper.Point) hypermapper.Metrics { return m })
		})
		publish = append(publish, us(d))
	}
	reread := evalstore.Open(evalstore.Options{Dir: dir}).Scope(seqKey, "probe-device", 1)
	var hits []float64
	simulated := 0
	for key, pt := range pts {
		var got hypermapper.Metrics
		d := b.tr.time("probe", "evalstore.hit", 0, func() {
			got = reread.Evaluate(pt, func(hypermapper.Point) hypermapper.Metrics { simulated++; return hypermapper.Metrics{} })
		})
		b.check(got == want[key], "evalstore probe: record %s read back as %+v, published %+v", key, got, want[key])
		hits = append(hits, us(d))
	}
	b.check(simulated == 0, "evalstore probe: %d published records were simulated again", simulated)
	b.add("evalstore.publish_us", median(publish), "us")
	b.add("evalstore.hit_us", median(hits), "us")
}

// probeLeases times TryAcquire+Release round trips on the shared
// filesystem lease layer.
func (b *bench) probeLeases() {
	lm := sharedfs.NewLeaseManager(b.dir("probe-leases"), "probe", 10*time.Second, nil)
	var rounds []float64
	for i := 0; i < leaseProbeRounds; i++ {
		var err error
		d := b.tr.time("probe", "sharedfs.lease", 0, func() {
			var l *sharedfs.Lease
			var ok bool
			if l, ok, err = lm.TryAcquire(fmt.Sprintf("probe-%d", i%8)); err == nil && ok {
				err = l.Release()
			} else if err == nil {
				err = fmt.Errorf("lease probe-%d held by someone else", i%8)
			}
		})
		mustf(err, "lease probe")
		rounds = append(rounds, us(d))
	}
	b.add("sharedfs.lease_us", median(rounds), "us")
}

// probeOptimize replays grid cell 0's screening exploration —
// hypermapper.Optimize with the campaign's budget, constraint and cell
// seed — evaluated through the warm store, and reports its wall time
// minus the time spent inside evaluator calls: the optimizer's own
// surrogate fitting, scoring and bookkeeping.
func (b *bench) probeOptimize(opts campaign.Options, seq *dataset.MemorySequence, warmEval string) []hypermapper.Observation {
	space := core.DSESpace()
	cell := opts.Scenarios[0]
	target := opts.Targets[0]
	// The campaign keys records by the full rendered device profile.
	scope := evalstore.Open(evalstore.Options{Dir: warmEval}).Scope(cell.Scale.CacheKey(), fmt.Sprintf("%+v", target), opts.CellStride)
	simulate := core.NewEvaluator(space, slambench.Subsample(seq, opts.CellStride), device.NewModel(target))
	var sims atomic.Int64
	memo := hypermapper.NewTieredMemoEvaluator(func(pt hypermapper.Point) hypermapper.Metrics {
		sims.Add(1)
		return simulate(pt)
	}, scope)

	cfg := hypermapper.DefaultOptimizerConfig()
	cfg.RandomSamples = opts.RandomSamples
	cfg.ActiveIterations = opts.ActiveIterations
	cfg.BatchPerIteration = opts.BatchPerIteration
	cfg.Seed = opts.Seed + 9973 // cell 0's seed (campaign seed + (index+1)·9973)
	cfg.Workers = b.nproc
	cfg.ConstraintObjective = 1
	cfg.ConstraintLimit = opts.AccuracyLimit

	start := time.Now()
	root := b.tr.add("probe", "hypermapper.optimize", 0, start, start)
	var mu sync.Mutex // the optimizer evaluates from several goroutines
	var calls []interval
	res, err := hypermapper.Optimize(space, func(pt hypermapper.Point) hypermapper.Metrics {
		s := time.Now()
		m := memo.Evaluate(pt)
		e := time.Now()
		b.tr.add("probe", "hypermapper.evaluate", root, s, e)
		mu.Lock()
		calls = append(calls, interval{s, e})
		mu.Unlock()
		return m
	}, cfg)
	end := time.Now()
	b.tr.setEnd(root, end)
	mustf(err, "optimize probe")
	b.add("hypermapper.optimize_self_s", selfTime(interval{start, end}, calls).Seconds(), "s")
	hits, misses := memo.Stats()
	b.addNote("hypermapper.probe_sims", float64(sims.Load()), "count",
		fmt.Sprintf("%d memo hits, %d misses; 0 when the warm store answered every evaluation", hits, misses))
	return res.Observations
}

// probeForest fits the runtime surrogate on the optimize probe's
// observations, as the optimizer does, and scores a seeded candidate
// pool through the flattened forest.
func (b *bench) probeForest(obs []hypermapper.Observation) {
	var X [][]float64
	var y []float64
	for _, o := range obs {
		if !o.M.Failed {
			X = append(X, o.X)
			y = append(y, o.M.Runtime)
		}
	}
	if len(X) < 2 {
		b.check(false, "forest probe: only %d successful observations", len(X))
		return
	}
	space := core.DSESpace()
	cfg := hypermapper.DefaultOptimizerConfig().Forest
	cfg.Tree.MTry = len(space.Params)
	cfg.Seed = b.seed
	cfg.Workers = b.nproc
	var fits []float64
	var forest *rf.Forest
	for i := 0; i < fitProbeRounds; i++ {
		var err error
		d := b.tr.time("probe", "rf.fit", 0, func() { forest, err = rf.FitForest(X, y, cfg) })
		mustf(err, "forest probe")
		fits = append(fits, ms(d))
	}
	flat := forest.Flatten()
	rng := rand.New(rand.NewSource(b.seed))
	d := len(space.Params)
	pool := make([]float64, predictPool*d)
	for i := 0; i < predictPool; i++ {
		space.SampleInto(pool[i*d:(i+1)*d], rng)
	}
	mean := make([]float64, predictPool)
	std := make([]float64, predictPool)
	var preds []float64
	for i := 0; i < fitProbeRounds; i++ {
		dur := b.tr.time("probe", "rf.predict", 0, func() { flat.PredictBatch(pool, mean, std, b.nproc) })
		preds = append(preds, us(dur)/predictPool)
	}
	b.add("rf.fit_ms", median(fits), "ms")
	b.add("rf.predict_us", median(preds), "us")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
