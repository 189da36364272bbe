// Command campaignbench is the repository's end-to-end benchmark. It
// runs one workload in-process through the public campaign entry points
// (campaign.Run, and serve.NewManager/serve.NewServer over loopback
// HTTP), checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around every call it makes into a layer, runs the
// layer probes, and reports the per-layer metrics instead.
//
// Build and run it from the repository root with
//
//	bash campaignbench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: campaign-cold, campaign-warm, serve-overlap (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, never in the JSON
}

// bench is one benchmark run: its settings, the metrics it collected,
// its operation tally and the output checks that failed.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	nproc    int
	work     string // scratch directory, removed at exit
	tr       *tracer

	metrics  []metric
	tally    tally
	failures []string
}

func (b *bench) add(name string, value float64, unit string) {
	b.metrics = append(b.metrics, metric{name: name, value: value, unit: unit})
}

func (b *bench) addNote(name string, value float64, unit, note string) {
	b.metrics = append(b.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// check records a failed output check.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// dir returns a fresh directory under the run's scratch space.
func (b *bench) dir(name string) string {
	d := filepath.Join(b.work, name)
	os.RemoveAll(d)
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatalf("scratch directory: %v", err)
	}
	return d
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaignbench: "+format+"\n", args...)
	os.Exit(2)
}

// jsonMetrics names the metrics each mode puts in the final JSON line;
// every other metric is printed only in the human-readable lines.
var jsonMetrics = map[bool][]string{
	false: {"campaign_s", "evals_per_s", "setup_s", "cpu_s", "alloc_mb", "peak_rss_mb"},
	true: {
		"campaign.plan_s", "campaign.explore_s", "campaign.promote_s", "campaign.crossmeasure_s",
		"campaign.aggregate_s", "campaign.explore_util", "campaign.explore_straggler_s", "campaign.cells_failed",
		"kfusion.preprocess_ms", "kfusion.track_ms", "kfusion.integrate_ms", "kfusion.raycast_ms",
		"core.eval_ms", "core.eval_alloc_mb",
		"hypermapper.optimize_self_s", "rf.fit_ms", "rf.predict_us",
		"evalstore.simulations", "evalstore.disk_hits", "evalstore.dup_sims",
		"evalstore.hit_us", "evalstore.publish_us",
		"seqcache.hit_ms", "seqcache.render_ms", "sharedfs.lease_us",
		"go.gc_cpu_frac", "go.gc_cycles", "trace.overhead_s",
	},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "campaign-cold, campaign-warm or serve-overlap")
	seed := flag.Int64("seed", 1, "seeds the probe samples and the read-phase request order")
	seconds := flag.Float64("seconds", 10, "how long the timed part measures")
	trace := flag.Int("trace", 0, "1 records spans, runs the layer probes and reports per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want campaign-cold, campaign-warm or serve-overlap)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		nproc:    runtime.NumCPU(),
		work:     filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid())),
	}
	if b.traced {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatalf("scratch directory: %v", err)
	}
	warmUp(b.nproc)
	run(b)
	b.add("error_rate", b.tally.errorRate(), "ratio")
	os.RemoveAll(b.work)
	if b.traced {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			b.check(false, "writing spans: %v", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	os.Exit(b.finish())
}

// warmUp keeps every CPU busy for a second before anything is measured:
// on small shared VMs a process's first second ran at up to half speed.
func warmUp(nproc int) {
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for time.Now().Before(deadline) {
				for j := 0; j < 1000; j++ {
					x = x*1.0000001 + 1e-9
				}
			}
			spin.Store(math.Float64bits(x))
		}()
	}
	wg.Wait()
}

// spin keeps warmUp's arithmetic from being optimised away.
var spin atomic.Uint64

// finish prints every metric, then the result line, and returns the
// exit code.
func (b *bench) finish() int {
	mode := "end-to-end"
	if b.traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("workload %s seed %d, %s metrics, %d CPUs\n", b.workload, b.seed, mode, b.nproc)
	values := map[string]metric{}
	for _, m := range b.metrics {
		values[m.name] = m
		line := fmt.Sprintf("  %-32s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		fmt.Println(line)
	}
	res := result{Correct: len(b.failures) == 0, Attempted: b.tally.attempted, Failed: b.tally.failed,
		Metrics: map[string]jsonMetric{}}
	for _, name := range jsonMetrics[b.traced] {
		m, ok := values[name]
		if !ok {
			b.failures = append(b.failures, "metric "+name+" was not measured")
			res.Correct = false
			continue
		}
		res.Metrics[name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	if res.Attempted < 1 {
		b.failures = append(b.failures, "no operation was attempted")
		res.Correct = false
	}
	for _, f := range b.failures {
		fmt.Println("CHECK FAILED: " + f)
	}
	if len(b.failures) > 0 {
		fmt.Printf("%d output checks failed: %s\n", len(b.failures), strings.Join(b.failures, "; "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
