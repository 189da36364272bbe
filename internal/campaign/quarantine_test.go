package campaign

import (
	"bytes"
	"testing"
)

// TestPanicQuarantinedCell poisons one cell's pipeline (every
// simulation in it panics) and requires the campaign to quarantine the
// cell — persisted failed artifact, failed row in the report — while
// aggregating a robust configuration from the survivors.
func TestPanicQuarantinedCell(t *testing.T) {
	const poisoned = 1
	dir := t.TempDir()
	opts := resumeOptions(2, dir)
	opts.observeSimulation = func(cell int, class string) {
		if cell == poisoned {
			panic("poisoned cell")
		}
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("poisoned campaign aborted instead of quarantining: %v", err)
	}
	for i, c := range res.Cells {
		if i == poisoned {
			if !c.Failed || c.FailureReason != "poisoned cell" {
				t.Fatalf("poisoned cell not quarantined: %+v", c)
			}
			if len(c.Front) != 0 || c.HasBestFeasible || c.Evaluations != 0 {
				t.Fatalf("quarantined cell carries results: %+v", c)
			}
			if c.Promoted {
				t.Fatal("quarantined cell promoted to full fidelity")
			}
		} else if c.Failed {
			t.Fatalf("healthy cell %d quarantined", i)
		}
	}
	if !res.HasRobust {
		t.Fatal("no robust configuration from the surviving cells")
	}
	if res.Robust.Pick.Ranks[poisoned] != 0 {
		t.Fatalf("quarantined cell ranked %d, want 0", res.Robust.Pick.Ranks[poisoned])
	}
	if !res.Robust.PerCell[poisoned].Failed {
		t.Fatal("quarantined cell's robust metrics not marked Failed")
	}
	rep := res.Report()
	if !rep.Cells[poisoned].Failed || rep.Cells[poisoned].FailureReason != "poisoned cell" {
		t.Fatalf("report row not marked failed: %+v", rep.Cells[poisoned])
	}
	if !bytes.Contains(renderReport(t, res), []byte("failed")) {
		t.Fatal("rendered report does not show the failed row")
	}

	// Resuming loads the failed artifact instead of re-detonating the
	// cell: zero simulations, byte-identical report.
	var sims simCounter
	again := resumeOptions(2, dir)
	again.observeSimulation = sims.hook
	res2, err := Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.total(); n != 0 {
		t.Fatalf("resume of quarantined campaign ran %d simulations, want 0", n)
	}
	if !bytes.Equal(renderReport(t, res2), renderReport(t, res)) {
		t.Fatal("resumed quarantined campaign renders a different report")
	}
	if !res2.Cells[poisoned].Failed {
		t.Fatal("resumed run lost the quarantine")
	}
}

// TestCrossMeasurePanicQuarantined poisons only the cross-measurement
// class of one cell: the per-measurement quarantine must absorb each
// panic as Failed metrics (infeasible in that cell) and the campaign
// must still complete with a robust pick.
func TestCrossMeasurePanicQuarantined(t *testing.T) {
	const poisoned = 2
	opts := resumeOptions(1, "")
	opts.observeSimulation = func(cell int, class string) {
		if cell == poisoned && class == simCross {
			panic("cross poisoned")
		}
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("cross-measure panic aborted the campaign: %v", err)
	}
	if res.Cells[poisoned].Failed {
		t.Fatal("exploration quarantined for a cross-measure-only fault")
	}
	if !res.HasRobust {
		t.Fatal("no robust configuration despite healthy explorations")
	}
}

// TestAllCellsQuarantined: when every cell is poisoned the campaign
// still completes — all rows failed, no robust configuration — instead
// of crashing or hanging.
func TestAllCellsQuarantined(t *testing.T) {
	opts := resumeOptions(2, "")
	opts.observeSimulation = func(int, string) { panic("everything is broken") }
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("fully poisoned campaign errored: %v", err)
	}
	for _, c := range res.Cells {
		if !c.Failed {
			t.Fatalf("cell %s/%s not quarantined", c.Cell.Scenario.Name, c.Cell.Target.Name)
		}
	}
	if res.HasRobust {
		t.Fatal("robust configuration picked with zero surviving cells")
	}
}
