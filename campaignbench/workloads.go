package main

import (
	"fmt"
	"path/filepath"
	"time"

	"slamgo/internal/campaign"
)

var workloads = map[string]func(*bench){
	"campaign-cold": coldWorkload,
	"campaign-warm": warmWorkload,
	"serve-overlap": serveWorkload,
}

// setupRepeats is how many times a cheap set-up is repeated so its
// median is steady.
const setupRepeats = 21

// freshStores lays out empty store directories for one campaign.
func (b *bench) freshStores(name string) stores {
	root := b.dir(name)
	return stores{
		checkpoint: filepath.Join(root, "checkpoint"),
		eval:       filepath.Join(root, "evalcache"),
		seq:        filepath.Join(root, "seqcache"),
	}
}

// coldWorkload runs the campaign against empty checkpoint, evalstore
// and seqcache directories, again and again until the time is up:
// simulation and rendering do all the work, the stores only publish.
func coldWorkload(b *bench) {
	spec := campaignSpec(devicesA, b.nproc)
	// Set-up is resolving and validating the spec, repeated so its median
	// is steady. Laying out the empty store directories is left out:
	// its filesystem latency varied fivefold between runs.
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		_, err := spec.Options()
		mustf(err, "campaign spec")
		setups = append(setups, time.Since(start))
	}

	rt0 := readRuntime()
	var plain, traced []campaignRun
	var first []byte
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin).Seconds() < b.seconds; i++ {
		runs := []string{""}
		if b.traced {
			// Each traced campaign is paired with an untraced one, so the
			// difference is the tracing overhead.
			runs = append(runs, fmt.Sprintf("cold-%d", i))
		}
		for j, obsRun := range runs {
			r := b.runCampaign(spec, b.freshStores(fmt.Sprintf("cold-%d-%d", i, j)), obsRun)
			if r.res == nil {
				return
			}
			if first == nil {
				first = r.rep.json
				b.checkPinned("cold", r.rep.json)
			}
			b.check(string(r.rep.json) == string(first), "cold campaign %d report differs from the first", i)
			if obsRun == "" {
				plain = append(plain, r)
			} else {
				traced = append(traced, r)
			}
		}
	}
	rt1 := readRuntime()
	b.add("setup_s", median(seconds(setups)), "s")
	if !b.traced {
		b.addCampaignMetrics(plain, "campaigns")
		return
	}
	b.addRuntime(rt0, rt1)
	b.addTracedCampaigns(plain, traced, nil)
	b.probes(spec, traced[len(traced)-1].dirs.eval)
}

// warmWorkload fills the evalstore and seqcache with one untimed cold
// campaign, then re-runs the same campaign against them until the time
// is up: every evaluation is a verified disk hit, so surrogate fitting
// and store reads do the work. The re-runs keep no checkpoint store —
// resuming one would skip the work, and its fsync'd artifact writes
// made whole runs up to twice as slow at random (see README.md).
func warmWorkload(b *bench) {
	spec := campaignSpec(devicesA, b.nproc)
	start := time.Now()
	shared := b.freshStores("warm-fill")
	fill := b.runCampaign(spec, shared, "")
	if fill.res == nil {
		return
	}
	b.add("setup_s", time.Since(start).Seconds(), "s")
	b.checkPinned("warm fill", fill.rep.json)
	records := countRecords(shared.eval)
	warm := stores{eval: shared.eval, seq: shared.seq}

	rt0 := readRuntime()
	var plain, traced []campaignRun
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin).Seconds() < b.seconds; i++ {
		obsRun := ""
		if b.traced && i%2 == 1 {
			obsRun = fmt.Sprintf("warm-%d", i)
		}
		r := b.runCampaign(spec, warm, obsRun)
		if r.res == nil {
			return
		}
		b.check(r.rep.equal(fill.rep), "warm campaign %d report differs from the cold fill's", i)
		b.check(r.res.EvalStats.Simulations == 0, "warm campaign %d simulated %d configurations", i, r.res.EvalStats.Simulations)
		b.check(r.res.EvalStats.DiskHits == fill.res.MemoMisses,
			"warm campaign %d: %d disk hits, cold resolved %d evaluations", i, r.res.EvalStats.DiskHits, fill.res.MemoMisses)
		if obsRun == "" {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	}
	rt1 := readRuntime()
	b.check(countRecords(shared.eval) == records, "warm runs published new evalstore records")
	if !b.traced {
		b.addCampaignMetrics(plain, "campaigns")
		return
	}
	if len(traced) == 0 {
		// The time ran out after one campaign; trace one more.
		r := b.runCampaign(spec, warm, "warm-traced")
		if r.res == nil {
			return
		}
		traced = append(traced, r)
	}
	b.addRuntime(rt0, rt1)
	b.addTracedCampaigns(plain, traced, nil)
	b.probes(spec, shared.eval)
}

// addCampaignMetrics reports the end-to-end metrics as medians over the
// run's campaigns (or job phases, named by what): wall time, resolved
// evaluations per second, CPU time and heap allocated; and the
// process's peak memory.
func (b *bench) addCampaignMetrics(runs []campaignRun, what string) {
	walls := make([]float64, len(runs))
	allocs := make([]float64, len(runs))
	cpus := make([]float64, len(runs))
	rates := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = r.wall.Seconds()
		allocs[i] = mb(r.allocs)
		cpus[i] = r.cpu.Seconds()
		rates[i] = float64(r.resolved) / r.wall.Seconds()
	}
	b.addNote("campaign_s", median(walls), "s", fmt.Sprintf("median of %d %s", len(runs), what))
	b.add("evals_per_s", median(rates), "1/s")
	b.add("cpu_s", median(cpus), "s")
	b.add("alloc_mb", median(allocs), "MB")
	b.add("peak_rss_mb", peakRSSMB(), "MB")
}

// addTracedCampaigns reports the per-layer metrics the traced campaigns
// expose through progress events and result counters, and the tracing
// overhead against the untraced ones. served, when non-nil, replaces
// the store counters a served job does not expose.
func (b *bench) addTracedCampaigns(plain, traced []campaignRun, served *servedCounters) {
	var obs []*stageObserver
	var tw, pw []float64
	for _, r := range traced {
		obs = append(obs, r.obs)
		tw = append(tw, r.wall.Seconds())
	}
	for _, r := range plain {
		pw = append(pw, r.wall.Seconds())
	}
	b.addStageMetrics(obs)
	b.add("trace.overhead_s", median(tw)-median(pw), "s")
	if served != nil {
		served.add(b)
		return
	}
	r := traced[0]
	res := r.res
	failed := 0
	for _, c := range res.Cells {
		if c.Failed {
			failed++
		}
	}
	b.add("campaign.cells_failed", float64(failed), "count")
	b.add("memo.hits", float64(res.MemoHits), "count")
	b.add("memo.misses", float64(res.MemoMisses), "count")
	b.add("evalstore.simulations", float64(res.EvalStats.Simulations), "count")
	b.add("evalstore.disk_hits", float64(res.EvalStats.DiskHits), "count")
	b.add("evalstore.published", float64(res.EvalStats.Published), "count")
	b.add("evalstore.degradations", float64(res.EvalStats.Degradations), "count")
	b.add("evalstore.dup_sims", float64(dupSims([]int{res.EvalStats.Simulations}, r.newRecords)), "count")
	b.add("seqcache.renders", float64(res.SeqStats.Renders), "count")
	b.add("seqcache.disk_hits", float64(res.SeqStats.DiskHits), "count")
	b.add("seqcache.degradations", float64(res.SeqStats.Degradations), "count")
}

// addStageMetrics reports stage timings, Explore utilisation and the
// straggler gap as medians over the observed campaigns.
func (b *bench) addStageMetrics(obs []*stageObserver) {
	for _, stage := range []campaign.Stage{
		campaign.StagePlan, campaign.StageExplore, campaign.StagePromote,
		campaign.StageCrossMeasure, campaign.StageAggregate,
	} {
		var xs []float64
		for _, o := range obs {
			xs = append(xs, o.stageSeconds(stage))
		}
		b.add("campaign."+string(stage)+"_s", median(xs), "s")
	}
	var util, strag []float64
	for _, o := range obs {
		util = append(util, o.exploreUtil(b.nproc))
		strag = append(strag, o.stragglerSeconds())
	}
	b.add("campaign.explore_util", median(util), "ratio")
	b.add("campaign.explore_straggler_s", median(strag), "s")
}
