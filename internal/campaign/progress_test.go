package campaign

import (
	"testing"
)

// collectEvents runs a campaign with an OnProgress observer and returns
// the delivered events in order. OnProgress callbacks are serialised by
// the runner, so a plain append is safe even with many workers.
func collectEvents(t *testing.T, opts Options) []ProgressEvent {
	t.Helper()
	var events []ProgressEvent
	opts.OnProgress = func(ev ProgressEvent) { events = append(events, ev) }
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	return events
}

// stageSpan returns the indices of the stage-start/stage-done pair for
// a stage (-1 when absent).
func stageSpan(events []ProgressEvent, stage Stage) (start, done int) {
	start, done = -1, -1
	for i, ev := range events {
		if ev.Stage != stage {
			continue
		}
		switch ev.Kind {
		case ProgressStageStart:
			start = i
		case ProgressStageDone:
			done = i
		}
	}
	return start, done
}

// TestProgressEventSequence checks the observer contract on a fresh
// cell-ladder campaign: stages bracket their cells in pipeline order,
// every cell reports exactly once per stage it participates in, and
// cell metadata (grid index, scenario, device, fidelity) is populated.
func TestProgressEventSequence(t *testing.T) {
	events := collectEvents(t, resumeOptions(4, ""))
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}

	// Plan completes first, before any other event.
	if events[0].Kind != ProgressStageDone || events[0].Stage != StagePlan {
		t.Fatalf("first event %+v, want plan stage-done", events[0])
	}
	if events[0].Cells != 4 {
		t.Fatalf("plan event reports %d cells, want 4", events[0].Cells)
	}

	// Stage brackets exist and nest in pipeline order.
	prevDone := 0
	for _, stage := range []Stage{StageExplore, StagePromote, StageCrossMeasure, StageAggregate} {
		start, done := stageSpan(events, stage)
		if start < 0 || done < 0 || start >= done {
			t.Fatalf("stage %s bracket malformed: start=%d done=%d", stage, start, done)
		}
		if start < prevDone {
			t.Fatalf("stage %s started at %d before previous stage finished at %d", stage, start, prevDone)
		}
		prevDone = done
	}

	// Cell events: all four cells screen in explore, the promoted half
	// re-explores at full fidelity, all four cross-measure — and each
	// lands inside its stage's bracket.
	counts := map[Stage]int{}
	for i, ev := range events {
		if ev.Kind != ProgressCellDone {
			continue
		}
		if ev.Cell < 0 || ev.Cell >= 4 {
			t.Fatalf("cell event with grid index %d", ev.Cell)
		}
		if ev.Scenario == "" || ev.Device == "" {
			t.Fatalf("cell event missing identity: %+v", ev)
		}
		if ev.Resumed {
			t.Fatalf("fresh run delivered a resumed cell event: %+v", ev)
		}
		start, done := stageSpan(events, ev.Stage)
		if i < start || i > done {
			t.Fatalf("cell event %d for stage %s outside its bracket [%d,%d]", i, ev.Stage, start, done)
		}
		if ev.Stage == StageExplore || ev.Stage == StagePromote {
			if ev.Fidelity == "" {
				t.Fatalf("exploration cell event missing fidelity: %+v", ev)
			}
		}
		counts[ev.Stage]++
	}
	if counts[StageExplore] != 4 {
		t.Fatalf("%d explore cell events, want 4", counts[StageExplore])
	}
	if counts[StagePromote] != 2 { // ceil(0.5 × 4) cells promoted
		t.Fatalf("%d promote cell events, want 2", counts[StagePromote])
	}
	if counts[StageCrossMeasure] != 4 {
		t.Fatalf("%d cross-measure cell events, want 4", counts[StageCrossMeasure])
	}
}

// TestProgressEventsMarkResumedArtifacts: replaying a completed
// campaign from its checkpoint store delivers the same cell events with
// Resumed set — the observer sees the artifact history, not just local
// computation.
func TestProgressEventsMarkResumedArtifacts(t *testing.T) {
	dir := t.TempDir()
	fresh := collectEvents(t, resumeOptions(1, dir))

	opts := resumeOptions(4, dir)
	replay := collectEvents(t, opts)

	count := func(events []ProgressEvent) int {
		n := 0
		for _, ev := range events {
			if ev.Kind == ProgressCellDone {
				n++
			}
		}
		return n
	}
	if count(replay) != count(fresh) {
		t.Fatalf("replay delivered %d cell events, fresh run %d", count(replay), count(fresh))
	}
	for _, ev := range replay {
		if ev.Kind == ProgressCellDone && !ev.Resumed {
			t.Fatalf("replayed cell event not marked resumed: %+v", ev)
		}
	}
}
