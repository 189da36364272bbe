package campaign

import (
	"bytes"
	"testing"

	"slamgo/internal/core"
	"slamgo/internal/slambench"
)

func TestScenarioRegistry(t *testing.T) {
	base := core.QuickScale()
	all := Scenarios(base)
	if len(all) != 6 {
		t.Fatalf("registry has %d scenarios, want 6", len(all))
	}
	wantNames := []string{"lr_kt0", "lr_kt1", "lr_kt2", "lr_kt3", "of_kt0", "of_kt1"}
	for i, s := range all {
		if s.Name != wantNames[i] {
			t.Fatalf("scenario %d is %q, want %q", i, s.Name, wantNames[i])
		}
		if s.Scale.Width != base.Width || s.Scale.Frames != base.Frames || s.Scale.Noisy != base.Noisy {
			t.Fatalf("scenario %q did not inherit the base scale: %+v", s.Name, s.Scale)
		}
		if s.Scale.Office != (i >= 4) {
			t.Fatalf("scenario %q office flag wrong", s.Name)
		}
	}
	sel, err := SelectScenarios(base, []string{"of_kt1", "lr_kt2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "of_kt1" || sel[1].Name != "lr_kt2" {
		t.Fatalf("selection order not preserved: %+v", sel)
	}
	if _, err := SelectScenarios(base, []string{"lr_kt9"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestGridAndTargets(t *testing.T) {
	targets, err := ResolveTargets(42, []string{"odroid-xu3", "pixel-adreno530", "desktop-gpu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 3 || targets[0].Name != "odroid-xu3" || targets[1].Name != "pixel-adreno530" {
		t.Fatalf("targets: %+v", targets)
	}
	if _, err := ResolveTargets(42, []string{"nokia-3310"}); err == nil {
		t.Fatal("unknown target accepted")
	}

	cells := Grid(Scenarios(core.QuickScale())[:2], targets[:2])
	if len(cells) != 4 {
		t.Fatalf("grid size %d, want 4", len(cells))
	}
	// Scenario-major order with sequential indices.
	want := []struct{ scen, dev string }{
		{"lr_kt0", "odroid-xu3"}, {"lr_kt0", "pixel-adreno530"},
		{"lr_kt1", "odroid-xu3"}, {"lr_kt1", "pixel-adreno530"},
	}
	for i, c := range cells {
		if c.Index != i || c.Scenario.Name != want[i].scen || c.Target.Name != want[i].dev {
			t.Fatalf("cell %d: %+v", i, c)
		}
	}
}

// TestSelectionErrorPaths covers the registry/catalogue failure modes a
// campaign must reject before any simulation: unknown names (checked in
// TestScenarioRegistry/TestGridAndTargets too), empty selections and
// duplicated selections.
func TestSelectionErrorPaths(t *testing.T) {
	base := core.QuickScale()
	if _, err := SelectScenarios(base, nil); err == nil {
		t.Fatal("empty scenario selection accepted")
	}
	if _, err := SelectScenarios(base, []string{"lr_kt0", "of_kt1", "lr_kt0"}); err == nil {
		t.Fatal("duplicate scenario accepted")
	}
	if _, err := ResolveTargets(42, nil); err == nil {
		t.Fatal("empty device selection accepted")
	}
	if _, err := ResolveTargets(42, []string{"odroid-xu3", "odroid-xu3"}); err == nil {
		t.Fatal("duplicate built-in device accepted")
	}
	if _, err := ResolveTargets(42, []string{"pixel-adreno530", "pixel-adreno530"}); err == nil {
		t.Fatal("duplicate phone accepted")
	}
}

func TestGridScenarioMajorOrder(t *testing.T) {
	scen := Scenarios(core.QuickScale())[:3]
	targets, err := ResolveTargets(42, []string{"odroid-xu3", "desktop-gpu"})
	if err != nil {
		t.Fatal(err)
	}
	cells := Grid(scen, targets)
	if len(cells) != 6 {
		t.Fatalf("grid size %d, want 6", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if want := scen[i/2].Name; c.Scenario.Name != want {
			t.Fatalf("cell %d scenario %q, want %q (scenario-major order)", i, c.Scenario.Name, want)
		}
		if want := targets[i%2].Name; c.Target.Name != want {
			t.Fatalf("cell %d target %q, want %q", i, c.Target.Name, want)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	scen, err := SelectScenarios(campaignScale(), []string{"lr_kt0"})
	if err != nil {
		t.Fatal(err)
	}
	targets, err := ResolveTargets(42, []string{"odroid-xu3"})
	if err != nil {
		t.Fatal(err)
	}
	ok := Options{Scenarios: scen, Targets: targets}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid zero-default options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"unknown stop-after stage", func(o *Options) { o.StopAfter = "sideways" }},
		{"stop-after without checkpoint discards work", func(o *Options) { o.StopAfter = StageExplore }},
		{"cell promote fraction > 1", func(o *Options) { o.CellPromoteFraction = 1.5 }},
		{"negative promote fraction", func(o *Options) { o.PromoteFraction = -0.5 }},
		{"negative cell stride", func(o *Options) { o.CellStride = -2 }},
		{"negative accuracy limit", func(o *Options) { o.AccuracyLimit = -1 }},
		{"negative seq cache size", func(o *Options) { o.SeqCacheMaxBytes = -1 }},
		{"seq cache bound without seq cache", func(o *Options) { o.SeqCacheMaxBytes = 1 << 20 }},
	}
	for _, c := range cases {
		bad := ok
		c.mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestParseStage(t *testing.T) {
	for _, s := range []string{"", "plan", "explore", "promote", "crossmeasure"} {
		if _, err := ParseStage(s); err != nil {
			t.Fatalf("ParseStage(%q): %v", s, err)
		}
	}
	for _, s := range []string{"aggregate", "Explore", "bogus"} {
		if _, err := ParseStage(s); err == nil {
			t.Fatalf("ParseStage(%q) accepted", s)
		}
	}
}

func TestRunRejectsEmptyGrid(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("empty campaign accepted")
	}
	if _, err := Run(Options{Scenarios: Scenarios(core.QuickScale())}); err == nil {
		t.Fatal("campaign without targets accepted")
	}
}

// campaignScale is the test workload: small enough that a 8-cell
// campaign stays test-suite friendly, large enough that the pipeline
// really runs.
func campaignScale() core.Scale {
	return core.Scale{Width: 96, Height: 72, Frames: 8, Noisy: false, Seed: 42}
}

// testOptions is the shared 4-scenario × 2-device campaign setup.
func testOptions(workers int) Options {
	base := campaignScale()
	scen, err := SelectScenarios(base, []string{"lr_kt0", "lr_kt1", "lr_kt3", "of_kt0"})
	if err != nil {
		panic(err)
	}
	targets, err := ResolveTargets(42, []string{"odroid-xu3", "pixel-adreno530"})
	if err != nil {
		panic(err)
	}
	return Options{
		Scenarios:          scen,
		Targets:            targets,
		RandomSamples:      5,
		ActiveIterations:   1,
		BatchPerIteration:  2,
		AccuracyLimit:      0.1, // short low-res sequences need a lenient bound
		Seed:               7,
		Workers:            workers,
		FidelityStride:     2,
		PromoteFraction:    0.5,
		MaxFrontCandidates: 1,
	}
}

// renderReport serialises a campaign result through every report writer
// so byte-identity covers the full reporting surface.
func renderReport(t *testing.T, res *Result) []byte {
	t.Helper()
	rep := res.Report()
	var buf bytes.Buffer
	if err := slambench.WriteCampaignTable(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if err := slambench.WriteCampaignCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if err := slambench.WriteCampaignJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignDeterministicAcrossWorkers is the acceptance check: a
// seeded 4-scenario × 2-device campaign produces a bit-identical report
// — per-cell fronts, robust configuration, every serialisation — for
// workers 1, 4 and 8 (run under -race via make race).
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	ref, err := Run(testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Cells) != 8 {
		t.Fatalf("grid has %d cells, want 8", len(ref.Cells))
	}
	// Structural sanity on the reference run before comparing bytes.
	for _, c := range ref.Cells {
		if c.Evaluations == 0 {
			t.Fatalf("cell %s/%s ran no evaluations", c.Cell.Scenario.Name, c.Cell.Target.Name)
		}
		if c.FullFidelityEvals >= c.Evaluations {
			t.Fatalf("cell %s/%s: ladder promoted everything (%d of %d)",
				c.Cell.Scenario.Name, c.Cell.Target.Name, c.FullFidelityEvals, c.Evaluations)
		}
		for _, o := range c.Front {
			if o.M.LowFidelity || o.M.Failed {
				t.Fatalf("cell %s/%s front contains a non-full measurement",
					c.Cell.Scenario.Name, c.Cell.Target.Name)
			}
		}
	}
	if !ref.HasRobust {
		t.Fatal("campaign produced no robust configuration")
	}
	if len(ref.Robust.PerCell) != len(ref.Cells) || len(ref.Robust.Pick.Ranks) != len(ref.Cells) {
		t.Fatalf("robust aggregation incomplete: %d cells, %d metrics, %d ranks",
			len(ref.Cells), len(ref.Robust.PerCell), len(ref.Robust.Pick.Ranks))
	}
	// Robust configuration: full fidelity everywhere, feasible where the
	// flag claims, and a valid pipeline configuration.
	for j, m := range ref.Robust.PerCell {
		if m.LowFidelity {
			t.Fatalf("robust metrics in cell %d are low fidelity", j)
		}
		if ref.Robust.Pick.FeasibleEverywhere && (m.Failed || m.MaxATE > ref.AccuracyLimit) {
			t.Fatalf("robust config infeasible in cell %d despite FeasibleEverywhere: %+v", j, m)
		}
	}
	if err := ref.Robust.Config.Validate(); err != nil {
		t.Fatalf("robust config invalid: %v", err)
	}
	refBytes := renderReport(t, ref)

	for _, workers := range []int{4, 8} {
		got, err := Run(testOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, got), refBytes) {
			t.Fatalf("workers=%d: campaign report diverges from workers=1", workers)
		}
		// The underlying data must agree too, not just its rendering.
		if got.CandidateCount != ref.CandidateCount {
			t.Fatalf("workers=%d: candidate set %d vs %d", workers, got.CandidateCount, ref.CandidateCount)
		}
		for j := range ref.Cells {
			if len(got.Cells[j].Front) != len(ref.Cells[j].Front) {
				t.Fatalf("workers=%d: cell %d front size diverges", workers, j)
			}
			for k := range ref.Cells[j].Front {
				if got.Cells[j].Front[k].M != ref.Cells[j].Front[k].M {
					t.Fatalf("workers=%d: cell %d front member %d diverges", workers, j, k)
				}
			}
		}
		if got.Robust.Pick.Index != ref.Robust.Pick.Index ||
			got.Robust.Pick.WorstRank != ref.Robust.Pick.WorstRank ||
			got.Robust.Pick.RankSum != ref.Robust.Pick.RankSum {
			t.Fatalf("workers=%d: robust pick diverges", workers)
		}
	}
}
