package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"slamgo/internal/campaign"
)

// span is one traced interval, recorded by the benchmark around a call
// into a layer (or, for stages and cells, between progress events).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer is a
// valid no-op, which is how untraced runs skip all recording.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id (0 when untraced).
func (t *tracer) add(run, name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// setEnd closes a span opened with add(start, start).
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.origin).Nanoseconds()
	t.mu.Unlock()
}

// time runs f inside a span and returns f's duration.
func (t *tracer) time(run, name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(run, name, parent, start, end)
	return end.Sub(start)
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// processCPU is the CPU time this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stageObserver turns a campaign's progress events — delivered by
// Options.OnProgress for in-process runs, or read off the served SSE
// stream — into stage timings, the Explore straggler gap and CPU
// utilisation, and (when traced) stage and cell spans. Events may
// arrive from several goroutines.
type stageObserver struct {
	tr    *tracer
	run   string
	start time.Time // campaign submitted; Plan starts here
	root  int       // span id of the whole campaign

	mu          sync.Mutex
	stageStart  map[campaign.Stage]time.Time
	stageCPU    time.Duration // process CPU at the current stage's start
	stageDur    map[campaign.Stage]time.Duration
	exploreCPU  time.Duration
	exploreDone []time.Time
	cells       map[campaign.Stage][]time.Time
}

func newStageObserver(tr *tracer, run string, start time.Time) *stageObserver {
	return &stageObserver{
		tr: tr, run: run, start: start,
		root:       tr.add(run, "campaign.run", 0, start, start),
		stageStart: map[campaign.Stage]time.Time{campaign.StagePlan: start},
		stageDur:   map[campaign.Stage]time.Duration{},
		cells:      map[campaign.Stage][]time.Time{},
	}
}

func (o *stageObserver) observe(ev campaign.ProgressEvent) {
	at := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	switch ev.Kind {
	case campaign.ProgressStageStart:
		o.stageStart[ev.Stage] = at
		o.stageCPU = processCPU()
		o.cells[ev.Stage] = nil
	case campaign.ProgressStageDone:
		start, ok := o.stageStart[ev.Stage]
		if !ok {
			return
		}
		o.stageDur[ev.Stage] = at.Sub(start)
		if ev.Stage == campaign.StageExplore {
			o.exploreCPU = processCPU() - o.stageCPU
			o.exploreDone = o.cells[ev.Stage]
		}
		if o.tr != nil {
			id := o.tr.add(o.run, "campaign."+string(ev.Stage), o.root, start, at)
			for _, done := range o.cells[ev.Stage] {
				o.tr.add(o.run, "campaign.cell", id, start, done)
			}
		}
	case campaign.ProgressCellDone:
		o.cells[ev.Stage] = append(o.cells[ev.Stage], at)
	}
}

// finish closes the campaign's root span.
func (o *stageObserver) finish(end time.Time) { o.tr.setEnd(o.root, end) }

// stageSeconds reports one stage's wall time.
func (o *stageObserver) stageSeconds(s campaign.Stage) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stageDur[s].Seconds()
}

// exploreUtil is process CPU over Explore's wall time times the CPUs
// available: 1 means every CPU was busy for the whole stage.
func (o *stageObserver) exploreUtil(nproc int) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	wall := o.stageDur[campaign.StageExplore]
	if wall <= 0 {
		return 0
	}
	return o.exploreCPU.Seconds() / (wall.Seconds() * float64(nproc))
}

// stragglerSeconds is the last Explore cell's completion minus the
// median cell's: how long the stage waited on its slowest cells.
func (o *stageObserver) stragglerSeconds() float64 {
	o.mu.Lock()
	done := append([]time.Time(nil), o.exploreDone...)
	o.mu.Unlock()
	if len(done) == 0 {
		return 0
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	base := done[0]
	offsets := make([]float64, len(done))
	for i, d := range done {
		offsets[i] = d.Sub(base).Seconds()
	}
	return offsets[len(offsets)-1] - median(offsets)
}
