package campaign

import (
	"bytes"
	"sync"
	"testing"

	"slamgo/internal/core"
)

// resumeOptions is the shared 2-scenario × 2-device cell-ladder
// campaign the checkpoint/resume tests run: small enough to re-run many
// times, screened at CellStride 2 with half the cells promoted.
func resumeOptions(workers int, dir string) Options {
	// Smaller even than campaignScale: the resume suite runs this
	// campaign a dozen times (under -race in CI), and checkpoint
	// semantics do not need many pixels.
	base := core.Scale{Width: 48, Height: 36, Frames: 5, Noisy: false, Seed: 42}
	scen, err := SelectScenarios(base, []string{"lr_kt0", "of_kt0"})
	if err != nil {
		panic(err)
	}
	targets, err := ResolveTargets(42, []string{"odroid-xu3", "pixel-adreno530"})
	if err != nil {
		panic(err)
	}
	return Options{
		Scenarios:           scen,
		Targets:             targets,
		RandomSamples:       4,
		ActiveIterations:    1,
		BatchPerIteration:   2,
		AccuracyLimit:       0.1,
		Seed:                11,
		Workers:             workers,
		CellStride:          2,
		CellPromoteFraction: 0.5,
		MaxFrontCandidates:  1,
		CheckpointDir:       dir,
	}
}

// simCounter counts actual pipeline simulations by class, safely from
// worker goroutines.
type simCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (c *simCounter) hook(_ int, class string) {
	c.mu.Lock()
	if c.counts == nil {
		c.counts = map[string]int{}
	}
	c.counts[class]++
	c.mu.Unlock()
}

func (c *simCounter) get(class string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[class]
}

func (c *simCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

// TestCellLadderScreensAndPromotes checks the cell-level multi-fidelity
// semantics on a fresh (uncheckpointed) run: every cell screens, only
// the competitive half explores at full fidelity, and unpromoted cells
// are reported at screening fidelity.
func TestCellLadderScreensAndPromotes(t *testing.T) {
	res, err := Run(resumeOptions(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("grid has %d cells, want 4", len(res.Cells))
	}
	promoted := 0
	for _, c := range res.Cells {
		if c.Evaluations == 0 {
			t.Fatalf("cell %s/%s ran no evaluations", c.Cell.Scenario.Name, c.Cell.Target.Name)
		}
		switch c.Fidelity {
		case FidelityFull:
			if !c.Promoted {
				t.Fatalf("full-fidelity cell %s/%s not marked promoted", c.Cell.Scenario.Name, c.Cell.Target.Name)
			}
			promoted++
			// A promoted cell's totals include its screening spend.
			if c.LowFidelityEvals == 0 || c.Evaluations <= c.FullFidelityEvals {
				t.Fatalf("promoted cell %s/%s did not account screening spend: %+v",
					c.Cell.Scenario.Name, c.Cell.Target.Name, c)
			}
		case FidelityScreen:
			if c.Promoted {
				t.Fatalf("screen-fidelity cell %s/%s marked promoted", c.Cell.Scenario.Name, c.Cell.Target.Name)
			}
			if c.FullFidelityEvals != 0 || c.LowFidelityEvals != c.Evaluations {
				t.Fatalf("screen cell %s/%s has full-fidelity spend: %+v",
					c.Cell.Scenario.Name, c.Cell.Target.Name, c)
			}
		default:
			t.Fatalf("cell %s/%s has fidelity %q", c.Cell.Scenario.Name, c.Cell.Target.Name, c.Fidelity)
		}
		if c.Resumed {
			t.Fatalf("fresh run marked cell %s/%s resumed", c.Cell.Scenario.Name, c.Cell.Target.Name)
		}
	}
	if promoted != 2 { // ceil(0.5 × 4)
		t.Fatalf("%d cells promoted, want 2", promoted)
	}
	// The robust phase still cross-measures at full fidelity, so the
	// aggregation is comparable even with screened cells in the grid.
	if !res.HasRobust {
		t.Fatal("cell-ladder campaign produced no robust configuration")
	}
	for j, m := range res.Robust.PerCell {
		if m.LowFidelity {
			t.Fatalf("robust metrics in cell %d are low fidelity", j)
		}
	}
}

// TestInterruptedResumeByteIdentical is the acceptance check of the
// staged model: a campaign killed at a stage boundary and resumed —
// under any worker count — renders a byte-identical report to an
// uninterrupted run, with the checkpointed stages proven (by evaluator
// call counts) to never re-simulate.
func TestInterruptedResumeByteIdentical(t *testing.T) {
	ref, err := Run(resumeOptions(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)

	cases := []struct {
		stopAfter Stage
		workers   int
	}{
		{StageExplore, 1},
		{StageExplore, 4},
		{StageExplore, 8},
		{StagePromote, 4},
	}
	for _, c := range cases {
		dir := t.TempDir()
		intr := resumeOptions(1, dir)
		intr.StopAfter = c.stopAfter
		stopped, err := Run(intr)
		if err != nil {
			t.Fatal(err)
		}
		if stopped.StoppedAfter != c.stopAfter {
			t.Fatalf("interrupted run stopped after %q, want %q", stopped.StoppedAfter, c.stopAfter)
		}
		if stopped.HasRobust {
			t.Fatal("interrupted run aggregated a robust configuration")
		}

		var sims simCounter
		opts := resumeOptions(c.workers, dir)
		opts.observeSimulation = sims.hook
		got, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, got), refBytes) {
			t.Fatalf("stop=%s workers=%d: resumed report diverges from uninterrupted run",
				c.stopAfter, c.workers)
		}
		// Screening explorations were checkpointed before the kill: the
		// resumed run must load them, never re-simulate them.
		if n := sims.get(simScreen); n != 0 {
			t.Fatalf("stop=%s workers=%d: %d screening simulations on resume, want 0",
				c.stopAfter, c.workers, n)
		}
		if c.stopAfter == StagePromote {
			// Full-fidelity explorations were checkpointed too; only the
			// cross-measurement may simulate.
			if n := sims.get(simFull) + sims.get(simLadderLow); n != 0 {
				t.Fatalf("stop=%s workers=%d: %d exploration simulations on resume, want 0",
					c.stopAfter, c.workers, n)
			}
		}
		for _, cell := range got.Cells {
			if !cell.Resumed {
				t.Fatalf("stop=%s workers=%d: cell %s/%s not marked resumed",
					c.stopAfter, c.workers, cell.Cell.Scenario.Name, cell.Cell.Target.Name)
			}
		}
	}
}

// TestCompletedCampaignResumesWithoutSimulation: restarting a campaign
// that already ran to completion re-renders the identical report from
// artifacts alone — zero pipeline simulations.
func TestCompletedCampaignResumesWithoutSimulation(t *testing.T) {
	dir := t.TempDir()
	first, err := Run(resumeOptions(1, dir))
	if err != nil {
		t.Fatal(err)
	}
	firstBytes := renderReport(t, first)

	var sims simCounter
	opts := resumeOptions(4, dir)
	opts.observeSimulation = sims.hook
	again, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.total(); n != 0 {
		t.Fatalf("restarted completed campaign ran %d simulations, want 0", n)
	}
	if !bytes.Equal(renderReport(t, again), firstBytes) {
		t.Fatal("restarted completed campaign renders a different report")
	}
}

// TestChangedOptionInvalidatesArtifacts: the content-hashed keys mean a
// changed option misses the stale artifacts and recomputes, yielding
// the same result a fresh run of the new options produces.
func TestChangedOptionInvalidatesArtifacts(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(resumeOptions(1, dir)); err != nil {
		t.Fatal(err)
	}

	changed := resumeOptions(1, "")
	changed.AccuracyLimit = 0.12
	fresh, err := Run(changed)
	if err != nil {
		t.Fatal(err)
	}

	var sims simCounter
	resumed := resumeOptions(1, dir)
	resumed.AccuracyLimit = 0.12
	resumed.observeSimulation = sims.hook
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.get(simScreen); n == 0 {
		t.Fatal("changed accuracy limit still hit stale screening artifacts")
	}
	if !bytes.Equal(renderReport(t, got), renderReport(t, fresh)) {
		t.Fatal("resume with changed options diverges from a fresh run of those options")
	}
	for _, cell := range got.Cells {
		if cell.Resumed {
			t.Fatalf("cell %s/%s marked resumed despite invalidated artifacts",
				cell.Cell.Scenario.Name, cell.Cell.Target.Name)
		}
	}
}
