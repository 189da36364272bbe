package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"slamgo/internal/campaign"
	"slamgo/internal/serve"
	"slamgo/internal/slambench"
)

// The campaign every workload runs: quick scale on a 2×2 grid with both
// fidelity ladders on, so all five stages do work.
const (
	randomSamples     = 6
	activeIterations  = 1
	batchPerIteration = 4
	// campaignSeed is fixed rather than taken from --seed: the campaign
	// seed decides which configurations win and are cross-measured at
	// full fidelity, which swings cold campaign time by a factor of two
	// between seeds (see README.md). --seed varies the probe samples and
	// the read-phase request order instead.
	campaignSeed = 1
)

var (
	scenarioNames = []string{"lr_kt0", "of_kt0"}
	devicesA      = []string{"odroid-xu3", "pixel-adreno530"}
	// devicesB is the overlapping served job: it shares the xu3 cells'
	// evaluation keys with job A.
	devicesB = []string{"odroid-xu3", "desktop-gpu"}
)

// pinnedDigest is the sha256 of the campaign's JSON report at the commit
// that added the benchmark.
//
//go:embed report.sha256
var pinnedDigest string

// campaignSpec is the wire spec of the workload campaign. Direct runs
// resolve it with CampaignSpec.Options, exactly as the service does, so
// direct and served reports are comparable byte for byte.
func campaignSpec(devices []string, workers int) serve.CampaignSpec {
	spec := serve.CampaignSpec{
		Scenarios:           scenarioNames,
		Devices:             devices,
		Quick:               true,
		Seed:                campaignSeed,
		RandomSamples:       randomSamples,
		ActiveIterations:    activeIterations,
		BatchPerIteration:   batchPerIteration,
		Workers:             workers,
		FidelityStride:      2,
		PromoteFraction:     0.5,
		CellStride:          2,
		CellPromoteFraction: 0.5,
	}
	spec.Normalize()
	return spec
}

// stores are the directories one direct campaign runs against.
type stores struct{ checkpoint, eval, seq string }

// reportBytes holds a campaign report in every served format.
type reportBytes struct{ json, csv, table []byte }

func renderReport(res *campaign.Result) (reportBytes, error) {
	rep := res.Report()
	var js, cs, tb bytes.Buffer
	if err := slambench.WriteCampaignJSON(&js, rep); err != nil {
		return reportBytes{}, err
	}
	if err := slambench.WriteCampaignCSV(&cs, rep); err != nil {
		return reportBytes{}, err
	}
	if err := slambench.WriteCampaignTable(&tb, rep); err != nil {
		return reportBytes{}, err
	}
	return reportBytes{js.Bytes(), cs.Bytes(), tb.Bytes()}, nil
}

func (r reportBytes) equal(o reportBytes) bool {
	return bytes.Equal(r.json, o.json) && bytes.Equal(r.csv, o.csv) && bytes.Equal(r.table, o.table)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkPinned compares a report with the pinned digest.
func (b *bench) checkPinned(what string, rep []byte) {
	want := strings.TrimSpace(pinnedDigest)
	got := digest(rep)
	b.check(got == want, "%s report digest %s, pinned %s", what, got, want)
}

// campaignRun is one campaign's outcome and cost. A served job phase
// fills only the cost fields and obs; res, rep, dirs and newRecords
// belong to direct campaigns.
type campaignRun struct {
	res      *campaign.Result
	rep      reportBytes
	dirs     stores
	wall     time.Duration
	resolved int           // evaluations resolved below the memo: simulations plus disk hits
	allocs   uint64        // heap bytes allocated while it ran
	cpu      time.Duration // process CPU time while it ran
	// newRecords counts the evaluation records the run added to its
	// store: the distinct configurations it simulated.
	newRecords int
	obs        *stageObserver
}

// runCampaign runs spec through campaign.Run against dirs, times it
// from the call to the rendered report, checks its store accounting
// and adds it to the tally. obs, when non-nil, receives its progress
// events.
func (b *bench) runCampaign(spec serve.CampaignSpec, dirs stores, obsRun string) campaignRun {
	opts, err := spec.Options()
	if err != nil {
		fatalf("campaign spec: %v", err)
	}
	opts.CheckpointDir = dirs.checkpoint
	opts.EvalCacheDir = dirs.eval
	opts.SeqCacheDir = dirs.seq
	records := countRecords(dirs.eval)
	settle()
	before := readRuntime()
	start := time.Now()
	var obs *stageObserver
	if obsRun != "" {
		obs = newStageObserver(b.tr, obsRun, start)
		opts.OnProgress = obs.observe
	}
	res, err := campaign.Run(opts)
	var rep reportBytes
	if err == nil {
		rep, err = renderReport(res)
	}
	wall := time.Since(start)
	after := readRuntime()
	if obs != nil {
		obs.finish(start.Add(wall))
	}
	if err != nil {
		b.tally.campaign(campaignCounts{err: true})
		b.check(false, "campaign seed %d: %v", spec.Seed, err)
		return campaignRun{dirs: dirs, wall: wall, obs: obs}
	}
	failed := 0
	for _, c := range res.Cells {
		if c.Failed {
			failed++
		}
	}
	b.tally.campaign(campaignCounts{
		cells: len(res.Cells), cellsFailed: failed,
		resolved: res.MemoMisses, evalDegr: res.EvalStats.Degradations,
		seqAcquired: res.SeqStats.Renders + res.SeqStats.DiskHits + res.SeqStats.MemoryHits,
		seqDegr:     res.SeqStats.Degradations,
	})
	b.check(res.EvalStats.Simulations+res.EvalStats.DiskHits == res.MemoMisses,
		"seed %d: simulations %d + disk hits %d != memo misses %d",
		spec.Seed, res.EvalStats.Simulations, res.EvalStats.DiskHits, res.MemoMisses)
	return campaignRun{res: res, rep: rep, dirs: dirs, wall: wall, resolved: res.MemoMisses,
		allocs: after.allocs - before.allocs, cpu: after.cpu - before.cpu,
		newRecords: countRecords(dirs.eval) - records, obs: obs}
}

// settle flushes dirty file data before a timed part, so a campaign's
// fsyncs do not queue behind writeback left by set-up or earlier runs.
func settle() { syscall.Sync() }

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports.
type runtimeSample struct {
	allocs, gcCycles uint64
	gcCPU, totalCPU  float64       // runtime/metrics CPU classes
	cpu              time.Duration // process CPU time (getrusage)
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
		cpu:      processCPU(),
	}
}

// addRuntime reports the Go runtime's share of a timed part.
func (b *bench) addRuntime(from, to runtimeSample) {
	frac := 0.0
	if cpu := to.totalCPU - from.totalCPU; cpu > 0 {
		frac = (to.gcCPU - from.gcCPU) / cpu
	}
	b.add("go.gc_cpu_frac", frac, "ratio")
	b.add("go.gc_cycles", float64(to.gcCycles-from.gcCycles), "count")
}

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// countRecords counts the evaluation records under an evalstore
// directory: the distinct keys simulated into it.
func countRecords(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".evr") {
			n++
		}
		return nil
	})
	return n
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func mustf(err error, format string, args ...any) {
	if err != nil {
		fatalf("%s: %v", fmt.Sprintf(format, args...), err)
	}
}
