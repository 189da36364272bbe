package campaign

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// TestCancelBeforeAnyWork: a cancel signal that fired before Run is
// honoured at the first cell boundary — the campaign returns
// ErrCanceled without a single pipeline simulation.
func TestCancelBeforeAnyWork(t *testing.T) {
	done := make(chan struct{})
	close(done)
	var sims simCounter
	opts := resumeOptions(4, t.TempDir())
	opts.Cancel = done
	opts.observeSimulation = sims.hook
	if _, err := Run(opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run returned %v, want ErrCanceled", err)
	}
	if n := sims.total(); n != 0 {
		t.Fatalf("pre-canceled campaign ran %d simulations, want 0", n)
	}
}

// TestCancelMidRunCheckpointsAndResumes is the cancellation acceptance
// check: a campaign canceled mid-explore stops at a cell boundary with
// its in-flight work checkpointed, and a rerun over its store renders
// a report byte-identical to an uninterrupted campaign while provably
// reusing the canceled run's artifacts (strictly fewer simulations than
// a cold run).
func TestCancelMidRunCheckpointsAndResumes(t *testing.T) {
	var refSims simCounter
	refOpts := resumeOptions(1, "")
	refOpts.observeSimulation = refSims.hook
	ref, err := Run(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)

	// Cancel after the third simulation: mid-explore for this grid, so
	// some cells are checkpointed, others never start.
	dir := t.TempDir()
	cancel := make(chan struct{})
	var once sync.Once
	var midSims simCounter
	opts := resumeOptions(2, dir)
	opts.observeSimulation = func(i int, class string) {
		midSims.hook(i, class)
		if midSims.total() >= 3 {
			once.Do(func() { close(cancel) })
		}
	}
	opts.Cancel = cancel
	if _, err := Run(opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Run returned %v, want ErrCanceled", err)
	}
	if midSims.total() >= refSims.total() {
		t.Fatalf("cancel did not stop the campaign early: %d simulations of %d",
			midSims.total(), refSims.total())
	}

	var resSims simCounter
	resumed := resumeOptions(4, dir)
	resumed.observeSimulation = resSims.hook
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderReport(t, got), refBytes) {
		t.Fatal("resumed-after-cancel report diverges from uninterrupted run")
	}
	if resSims.total() >= refSims.total() {
		t.Fatalf("resume after cancel re-simulated everything: %d simulations of %d",
			resSims.total(), refSims.total())
	}
}

// TestCancelAfterCompletionIsHarmless: a cancel signal that fires only
// after the last stage completed does not disturb the result.
func TestCancelAfterCompletionIsHarmless(t *testing.T) {
	ref, err := Run(resumeOptions(1, ""))
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	opts := resumeOptions(1, "")
	opts.Cancel = cancel // never fires during the run
	got, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	close(cancel)
	if !bytes.Equal(renderReport(t, got), renderReport(t, ref)) {
		t.Fatal("campaign with idle cancel channel diverges")
	}
}
