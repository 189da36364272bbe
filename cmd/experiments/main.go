// Command experiments regenerates every experiment of the reproduction
// (E1-E6 from DESIGN.md) and emits a Markdown report of measured results
// next to the paper's claims — the generator behind EXPERIMENTS.md.
//
//	go run ./cmd/experiments -o EXPERIMENTS.md           # full scale (~15 min)
//	go run ./cmd/experiments -quick -o /tmp/report.md    # reduced scale
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"slamgo/internal/campaign"
	"slamgo/internal/core"
	"slamgo/internal/hypermapper"
	"slamgo/internal/slambench"
)

func main() {
	var (
		out       = flag.String("o", "", "write the report here (default stdout)")
		quick     = flag.Bool("quick", false, "reduced scale (faster, noisier numbers)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		random    = flag.Int("random", 20, "DSE random evaluations")
		active    = flag.Int("active", 5, "DSE active iterations")
		batch     = flag.Int("batch", 4, "DSE batch per iteration")
		workers   = flag.Int("workers", 0, "parallel evaluation workers (0 = all CPUs; results are identical for any value)")
		mfStride  = flag.Int("mf-stride", 0, "multi-fidelity frame stride for the DSE (>1 screens candidates on a subsampled sequence; 0 = full fidelity only)")
		mfPromote = flag.Float64("mf-promote", 0.25, "fraction of each batch promoted to full-fidelity runs (with -mf-stride)")

		runCampaign    = flag.Bool("campaign", false, "run the cross-scene/cross-device DSE campaign instead of the figure experiments")
		campScenes     = flag.String("campaign-scenes", "", "comma-separated scenario names for -campaign (lr_kt0..lr_kt3, of_kt0..of_kt1; empty = all six)")
		campDevices    = flag.String("campaign-devices", "odroid-xu3,pixel-adreno530", "comma-separated device targets for -campaign (odroid-xu3, desktop-gpu, or phone-catalogue names)")
		campFormat     = flag.String("campaign-format", "table", "campaign report format: table, csv or json")
		campCheckpoint = flag.String("campaign-checkpoint", "", "persist per-cell stage artifacts into this directory (created if needed) and load every matching one, so rerunning a killed campaign continues it")
		campCellStride = flag.Int("campaign-cell-stride", 0, "cell-level multi-fidelity frame stride (>1 screens every cell on a subsampled sequence and promotes only competitive cells to full fidelity)")
		campCellProm   = flag.Float64("campaign-cell-promote", 0.5, "fraction of grid cells promoted to full-fidelity exploration (with -campaign-cell-stride)")
		campStopAfter  = flag.String("campaign-stop-after", "", "end the campaign cleanly after this stage (plan, explore, promote or crossmeasure) — simulates a kill at a stage boundary for checkpoint/resume workflows")
		campWorkerID   = flag.String("campaign-worker-id", "", "run as one cooperating worker of a multi-process campaign: processes sharing -campaign-checkpoint split the grid through cell leases and any of them can be killed without losing the campaign")
		campLeaseTTL   = flag.Duration("campaign-lease-ttl", 0, "heartbeat deadline after which a dead worker's cell lease is reclaimed by its peers (with -campaign-worker-id; default 10s)")
		campSeqCache   = flag.String("campaign-seq-cache", "", "content-addressed rendered-sequence cache directory shared by campaign cells and cooperating workers (default: <campaign-checkpoint>/seqcache when checkpointing, otherwise in-process only; \"off\" disables the disk cache entirely)")
		campSeqCacheMB = flag.Int64("campaign-seq-cache-max-mb", 0, "evict oldest rendered-sequence artifacts once the cache exceeds this many MiB (0 = unbounded)")
		campEvalCache  = flag.String("campaign-eval-cache", "", "persistent content-addressed simulation-result store shared by campaign cells, cooperating workers, resumed runs and separate campaigns — no configuration is ever simulated twice against the same store (default: <campaign-checkpoint>/evalcache when checkpointing, otherwise in-process memoization only; a relative path is anchored under -campaign-checkpoint; \"off\" disables the disk store entirely)")
		campEvalMB     = flag.Int64("campaign-eval-cache-max-mb", 0, "evict evaluation records deterministically once the store exceeds this many MiB (0 = unbounded)")
		campCacheStats = flag.Bool("campaign-cache-stats", false, "add the cache counters (memo, evaluation store, sequence cache) to the JSON report under \"caches\" — execution provenance that differs between cold and warm runs, so it is off by default to keep report bytes comparable")
		campTransfer   = flag.Bool("campaign-transfer", false, "warm-start off-diagonal cells from the grid-diagonal anchor cells' results: borrowers seed from donor winners on a reduced budget and bias acquisition with a donor-pooled prior (donor data steers sampling only — it never enters a cell's reported results)")
		campTransSeeds = flag.Int("campaign-transfer-seeds", 0, "seeding budget of a warm-started borrower cell (with -campaign-transfer; 0 = default 3, minimum 3)")
		campKnowledge  = flag.Bool("campaign-knowledge", false, "extract per-cell decision rules (paper §V 'knowledge extraction') from each full-fidelity cell's observations into the JSON report")
	)
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	scale := core.DefaultScale()
	if *quick {
		scale = core.QuickScale()
	}

	if *runCampaign {
		// Every campaign flag is validated here, before any simulation
		// starts: a typo in -campaign-format or -campaign-stop-after
		// must fail in milliseconds, not after minutes of exploration.
		writeReport, err := campaignWriter(*campFormat)
		if err != nil {
			fatal(err)
		}
		stopAfter, err := campaign.ParseStage(*campStopAfter)
		if err != nil {
			fatal(err)
		}
		// The disk cache defaults on alongside checkpointing: the two
		// cooperate (workers sharing a checkpoint also share renders) and
		// both live under the same durable directory. "off" opts out.
		seqCacheDir := *campSeqCache
		switch {
		case seqCacheDir == "off":
			seqCacheDir = ""
		case seqCacheDir == "" && *campCheckpoint != "":
			seqCacheDir = filepath.Join(*campCheckpoint, "seqcache")
		}
		// Same policy for the evaluation store, with the contradictory
		// combinations ("off" plus a size bound, a relative path with
		// nothing to anchor it) rejected here — before any simulation.
		evalCacheDir, err := campaign.ResolveEvalCacheDir(*campEvalCache, *campCheckpoint, *campEvalMB)
		if err != nil {
			fatal(err)
		}
		opts := campaign.Options{
			RandomSamples:       *random,
			ActiveIterations:    *active,
			BatchPerIteration:   *batch,
			Seed:                *seed,
			Workers:             *workers,
			FidelityStride:      *mfStride,
			PromoteFraction:     *mfPromote,
			CellStride:          *campCellStride,
			CellPromoteFraction: *campCellProm,
			CheckpointDir:       *campCheckpoint,
			WorkerID:            *campWorkerID,
			LeaseTTL:            *campLeaseTTL,
			SeqCacheDir:         seqCacheDir,
			SeqCacheMaxBytes:    *campSeqCacheMB << 20,
			EvalCacheDir:        evalCacheDir,
			EvalCacheMaxBytes:   *campEvalMB << 20,
			CacheStats:          *campCacheStats,
			StopAfter:           stopAfter,
			Transfer:            *campTransfer,
			TransferSeeds:       *campTransSeeds,
			Knowledge:           *campKnowledge,
			Log:                 eprint,
		}
		if *quick {
			opts.AccuracyLimit = 0.08
		}
		if *campScenes == "" {
			opts.Scenarios = campaign.Scenarios(scale)
		} else if opts.Scenarios, err = campaign.SelectScenarios(scale, splitList(*campScenes)); err != nil {
			fatal(err)
		}
		if opts.Targets, err = campaign.ResolveTargets(*seed, splitList(*campDevices)); err != nil {
			fatal(err)
		}
		if err := opts.Validate(); err != nil {
			fatal(err)
		}
		eprint(fmt.Sprintf("campaign: %d scenarios × %d devices", len(opts.Scenarios), len(opts.Targets)))
		start := time.Now()
		res, err := campaign.Run(opts)
		if err != nil {
			fatal(err)
		}
		if res.StoppedAfter != "" {
			msg := fmt.Sprintf("campaign stopped after the %s stage in %s",
				res.StoppedAfter, time.Since(start).Round(time.Second))
			if *campCheckpoint != "" {
				msg += "; rerun with the same -campaign-checkpoint to continue"
			}
			eprint(msg)
			return
		}
		rep := res.Report()
		if err := writeReport(w, rep); err != nil {
			fatal(err)
		}
		if *campCheckpoint != "" || seqCacheDir != "" || evalCacheDir != "" {
			// Execution provenance (which cells were resumed, at which
			// fidelity, what the caches served) goes to stderr so the
			// report on stdout/-o stays byte-comparable between fresh,
			// resumed and cached runs.
			eprint("campaign provenance:")
			if err := slambench.WriteCampaignProvenance(os.Stderr, rep); err != nil {
				fatal(err)
			}
		}
		eprint(fmt.Sprintf("campaign done in %s", time.Since(start).Round(time.Second)))
		return
	}

	start := time.Now()
	fmt.Fprintf(w, "# EXPERIMENTS — measured vs paper\n\n")
	fmt.Fprintf(w, "Generated by `go run ./cmd/experiments%s` (seed %d).\n\n",
		map[bool]string{true: " -quick", false: ""}[*quick], *seed)
	fmt.Fprintf(w, "Workload: lr_kt%d analogue, %d×%d, %d frames, Kinect noise=%v; ",
		scale.KT, scale.Width, scale.Height, scale.Frames, scale.Noisy)
	fmt.Fprintf(w, "execution target: simulated ODROID-XU3 (see DESIGN.md for the substitution rationale).\n\n")
	fmt.Fprintf(w, "Absolute numbers live on the simulated device, so only *relative*\n")
	fmt.Fprintf(w, "comparisons are claims; every paper claim is checked as a ratio/shape.\n\n")

	// ---- E1 / Fig 1 ----
	eprint("E1 (Fig 1): default-configuration run")
	fig1, err := core.RunFig1(scale)
	if err != nil {
		fatal(err)
	}
	s := fig1.Summary
	fmt.Fprintf(w, "## E1 / Figure 1 — instrumented default run\n\n")
	fmt.Fprintf(w, "Paper: the GUI reports live speed, power and accuracy of the stock\nKinectFusion configuration.\n\n")
	fmt.Fprintf(w, "| metric | measured |\n|---|---|\n")
	fmt.Fprintf(w, "| tracked frames | %.0f%% |\n", s.TrackedFraction*100)
	fmt.Fprintf(w, "| max ATE | %.4f m |\n| ATE RMSE | %.4f m |\n", s.ATE.Max, s.ATE.RMSE)
	fmt.Fprintf(w, "| simulated speed | %.1f FPS |\n| simulated power | %.2f W |\n", s.SimFPS, s.SimMeanPower)
	fmt.Fprintf(w, "| real-time (≥30 FPS) | %v |\n\n", s.MeetsRealTime())
	fmt.Fprintf(w, "Shape check: the default configuration is **accurate but far from\nreal time at full power** — the premise of the tuning study. ✓\n\n")

	// ---- E2+E3 / Fig 2 ----
	eprint("E2+E3 (Fig 2): design-space exploration")
	opts := core.DefaultFig2Options()
	opts.Scale = scale
	opts.RandomSamples = *random
	opts.ActiveIterations = *active
	opts.BatchPerIteration = *batch
	opts.Seed = *seed
	opts.Workers = *workers
	opts.FidelityStride = *mfStride
	opts.PromoteFraction = *mfPromote
	if *quick {
		opts.AccuracyLimit = 0.08
	}
	fig2, err := core.RunFig2(opts)
	if err != nil {
		fatal(err)
	}
	nA, nR := 0, 0
	for _, o := range fig2.Active.Observations {
		if !o.M.Failed && !o.M.LowFidelity && o.M.MaxATE <= fig2.AccuracyLimit {
			nA++
		}
	}
	for _, o := range fig2.RandomOnly {
		if !o.M.Failed && !o.M.LowFidelity && o.M.MaxATE <= fig2.AccuracyLimit {
			nR++
		}
	}
	fmt.Fprintf(w, "## E2 / Figure 2 (left) — random sampling vs active learning\n\n")
	fmt.Fprintf(w, "Paper: active learning over a random-forest model concentrates\nevaluations near the accuracy limit and finds better configurations\nthan random sampling at the same budget.\n\n")
	fmt.Fprintf(w, "| quantity | active learning | random sampling |\n|---|---|---|\n")
	fmt.Fprintf(w, "| observations | %d | %d |\n", len(fig2.Active.Observations), len(fig2.RandomOnly))
	// The comparison is budgeted in full-fidelity simulations: with the
	// multi-fidelity ladder the active run's observation count includes
	// cheap screening runs, so the baseline gets the promoted count.
	fmt.Fprintf(w, "| full-fidelity simulations | %d | %d |\n", fig2.ActiveFullEvals, fig2.BaselineBudget)
	if fig2.ActiveLowEvals > 0 {
		fmt.Fprintf(w, "| low-fidelity screening runs | %d | 0 |\n", fig2.ActiveLowEvals)
	}
	fmt.Fprintf(w, "| feasible (maxATE ≤ %.2g m) | %d | %d |\n", fig2.AccuracyLimit, nA, nR)
	bestR := ""
	if b, ok := bestFeasibleOf(fig2.RandomOnly, fig2.AccuracyLimit); ok {
		bestR = fmt.Sprintf("%.1f FPS", 1/b)
	} else {
		bestR = "none found"
	}
	if fig2.HasBestFeasible {
		fmt.Fprintf(w, "| best feasible speed | %.1f FPS | %s |\n\n", 1/fig2.BestFeasible.M.Runtime, bestR)
	}
	fmt.Fprintf(w, "Shape check: active learning finds **more feasible configurations and\na faster best** than random sampling. ✓\n\n")

	fmt.Fprintf(w, "Pareto front (runtime vs max ATE):\n\n```\n")
	for _, o := range fig2.Active.Front {
		fmt.Fprintf(w, "%8.1f FPS   maxATE %.4f m   %5.2f W\n", 1/o.M.Runtime, o.M.MaxATE, o.M.Power)
	}
	fmt.Fprintf(w, "```\n\n")

	fmt.Fprintf(w, "## E3 / Figure 2 (right) — knowledge extraction\n\n")
	fmt.Fprintf(w, "Paper: a decision tree over the evaluated configurations exposes which\nparameter regions satisfy which targets (accurate / fast / power\nefficient), with volume resolution, compute-size ratio and mu as the\ndominant splits.\n\n```\n")
	for _, r := range fig2.Knowledge {
		fmt.Fprintln(w, r)
	}
	fmt.Fprintf(w, "```\n\n")

	// ---- E4 / headline ----
	eprint("E4: headline default-vs-tuned")
	head, err := core.RunHeadline(fig2, scale)
	if err != nil {
		fatal(err)
	}
	if len(fig2.RuntimeImportance) > 0 {
		fmt.Fprintf(w, "Parameter sensitivity (forest mean-decrease-in-impurity):\n\n")
		fmt.Fprintf(w, "| parameter | runtime | max ATE |\n|---|---|---|\n")
		for _, p := range fig2.Space.Params {
			fmt.Fprintf(w, "| %s | %.1f%% | %.1f%% |\n", p.Name,
				100*fig2.RuntimeImportance[p.Name], 100*fig2.ATEImportance[p.Name])
		}
		fmt.Fprintf(w, "\n")
	}

	fmt.Fprintf(w, "## E4 — headline claim (default vs tuned on the XU3)\n\n")
	fmt.Fprintf(w, "Paper: dense mapping **in the real-time range within a 1 W budget**;\n**4.8× execution time** and **2.8× power** improvement vs the state of\nthe art.\n\n")
	fmt.Fprintf(w, "| | paper | measured |\n|---|---|---|\n")
	fmt.Fprintf(w, "| speed-up (tuned vs default) | 4.8× | %.1f× |\n", head.Speedup)
	fmt.Fprintf(w, "| power reduction | 2.8× | %.1f× |\n", head.PowerReduction)
	fmt.Fprintf(w, "| real-time within ~1 W | yes | %.1f FPS at %.2f W (%s) → %v |\n\n",
		head.TunedFPS, head.TunedLowPower.Power, head.TunedPoint,
		head.TunedMeetsRealTime && head.TunedLowPower.Power <= 1.5)
	fmt.Fprintf(w, "Tuned configuration found: vr=%d, csr=%d, mu=%.3g, pyramid=%v, ir=%d, tr=%d (maxATE %.4f m).\n\n",
		head.TunedConfig.VolumeResolution, head.TunedConfig.ComputeSizeRatio,
		head.TunedConfig.Mu, head.TunedConfig.PyramidIterations,
		head.TunedConfig.IntegrationRate, head.TunedConfig.TrackingRate,
		head.TunedPerf.MaxATE)

	// ---- E5 / Fig 3 ----
	eprint("E5 (Fig 3): 83-phone sweep")
	fig3, err := core.RunFig3(head.TunedConfig, scale, 42)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "## E5 / Figure 3 — speed-up across 83 phones\n\n")
	fmt.Fprintf(w, "Paper: the XU3-tuned configuration replayed on 83 crowdsourced Android\ndevices yields speed-ups spread roughly 0-14×.\n\n")
	fmt.Fprintf(w, "| quantity | paper | measured |\n|---|---|---|\n")
	fmt.Fprintf(w, "| devices | 83 | %d |\n", len(fig3.Phones))
	fmt.Fprintf(w, "| speed-up range | ≈0-14× | %.1f-%.1f× |\n", fig3.Min, fig3.Max)
	fmt.Fprintf(w, "| mean / median | n/a | %.1f× / %.1f× |\n\n", fig3.Mean, fig3.Median)
	hist := make([]int, 16)
	for _, p := range fig3.Phones {
		b := int(p.Speedup)
		if b > 15 {
			b = 15
		}
		hist[b]++
	}
	fmt.Fprintf(w, "```\n")
	for b, n := range hist {
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%2d-%2dx | %s (%d)\n", b, b+1, bars(n), n)
	}
	fmt.Fprintf(w, "```\n\n")

	// ---- E6 / baseline ----
	eprint("E6: cross-algorithm baseline")
	base, err := core.RunBaseline(scale, 0)
	if err != nil {
		fatal(err)
	}
	kf, odo := base.KFusion[0], base.Odometry[0]
	fmt.Fprintf(w, "## E6 — cross-algorithm comparison (methodology)\n\n")
	fmt.Fprintf(w, "SLAMBench's purpose: compare SLAM systems on identical data and\nmetrics. KinectFusion (model-based) vs frame-to-frame ICP odometry:\n\n")
	fmt.Fprintf(w, "| system | max ATE | RMSE ATE | sim FPS | sim W |\n|---|---|---|---|---|\n")
	fmt.Fprintf(w, "| %s | %.4f m | %.4f m | %.1f | %.2f |\n",
		kf.System, kf.ATE.Max, kf.ATE.RMSE, kf.SimFPS, kf.SimMeanPower)
	fmt.Fprintf(w, "| %s | %.4f m | %.4f m | %.1f | %.2f |\n\n",
		odo.System, odo.ATE.Max, odo.ATE.RMSE, odo.SimFPS, odo.SimMeanPower)
	fmt.Fprintf(w, "Shape check: odometry is cheaper but drifts more (%.4f m vs %.4f m\nRMSE); the map buys accuracy for compute. %s\n\n",
		odo.ATE.RMSE, kf.ATE.RMSE, check(odo.ATE.RMSE >= kf.ATE.RMSE))

	fmt.Fprintf(w, "---\nTotal generation time: %s.\n", time.Since(start).Round(time.Second))
	eprint("done")
}

func bestFeasibleOf(obs []hypermapper.Observation, limit float64) (float64, bool) {
	best := 0.0
	found := false
	for _, o := range obs {
		if o.M.Failed || o.M.LowFidelity || o.M.MaxATE > limit {
			continue
		}
		if !found || o.M.Runtime < best {
			best = o.M.Runtime
			found = true
		}
	}
	return best, found
}

// campaignWriter resolves -campaign-format to a report writer, so an
// unknown format fails before the campaign runs.
func campaignWriter(format string) (func(io.Writer, *slambench.CampaignReport) error, error) {
	switch format {
	case "table":
		return slambench.WriteCampaignTable, nil
	case "csv":
		return slambench.WriteCampaignCSV, nil
	case "json":
		return slambench.WriteCampaignJSON, nil
	}
	return nil, fmt.Errorf("unknown campaign format %q (want table, csv or json)", format)
}

// splitList parses a comma-separated flag into trimmed non-empty names.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func bars(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "#"
	}
	return s
}

func check(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗ (see notes)"
}

func eprint(msg string) { fmt.Fprintln(os.Stderr, "[experiments]", msg) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
