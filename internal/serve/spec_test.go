package serve

import (
	"testing"
)

func TestSpecNormalizeFillsCLIDefaults(t *testing.T) {
	var s CampaignSpec
	s.Normalize()
	if len(s.Scenarios) != 6 {
		t.Fatalf("default scenarios: %v", s.Scenarios)
	}
	if len(s.Devices) != 2 || s.Devices[0] != "odroid-xu3" || s.Devices[1] != "pixel-adreno530" {
		t.Fatalf("default devices: %v", s.Devices)
	}
	if s.Seed != 1 || s.RandomSamples != 20 || s.ActiveIterations != 5 || s.BatchPerIteration != 4 {
		t.Fatalf("default budget: %+v", s)
	}
	if s.PromoteFraction != 0.25 || s.CellPromoteFraction != 0.5 {
		t.Fatalf("default fractions: %+v", s)
	}
	// Normalization is idempotent: canonical specs stay canonical.
	id := s.ID()
	s.Normalize()
	if s.ID() != id {
		t.Fatal("normalization is not idempotent")
	}
}

func TestSpecNegativeMeansZero(t *testing.T) {
	s := CampaignSpec{ActiveIterations: -1, FidelityStride: -1, TransferSeeds: -1}
	s.Normalize()
	if s.ActiveIterations != 0 || s.FidelityStride != 0 || s.TransferSeeds != 0 {
		t.Fatalf("-1 did not normalize to zero: %+v", s)
	}
}

func TestSpecIDExcludesWorkers(t *testing.T) {
	a := CampaignSpec{Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"}, Workers: 1}
	b := CampaignSpec{Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"}, Workers: 8}
	a.Normalize()
	b.Normalize()
	if a.ID() != b.ID() {
		t.Fatal("worker count changed job identity")
	}
	c := a
	c.Seed = 2
	if c.ID() == a.ID() {
		t.Fatal("seed change did not change job identity")
	}
	// Equivalent submissions — explicit defaults vs omitted fields —
	// normalize to the same identity.
	d := CampaignSpec{Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"},
		Seed: 1, RandomSamples: 20, ActiveIterations: 5, BatchPerIteration: 4,
		PromoteFraction: 0.25, CellPromoteFraction: 0.5}
	d.Normalize()
	if d.ID() != a.ID() {
		t.Fatal("explicit CLI defaults produced a different identity than omitted fields")
	}
}

func TestSpecOptionsValidation(t *testing.T) {
	good := CampaignSpec{Quick: true, Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3"}}
	good.Normalize()
	opts, err := good.Options()
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if opts.AccuracyLimit != 0.08 {
		t.Fatalf("quick spec accuracy limit %g, want the CLI's 0.08", opts.AccuracyLimit)
	}
	if len(opts.Scenarios) != 1 || len(opts.Targets) != 1 {
		t.Fatalf("resolved grid %dx%d", len(opts.Scenarios), len(opts.Targets))
	}

	bad := []CampaignSpec{
		{Scenarios: []string{"lr_kt9"}},           // unknown scenario
		{Devices: []string{"nokia-3310"}},         // unknown device
		{Scenarios: []string{"lr_kt0", "lr_kt0"}}, // duplicate scenario
		{PromoteFraction: 1.5},                    // fraction out of range
		{CellPromoteFraction: 2},                  // fraction out of range
		{TransferSeeds: 2, Transfer: true},        // below surrogate minimum
		{Scenarios: []string{"lr_kt0"}, Devices: []string{"odroid-xu3", "odroid-xu3"}}, // duplicate device
	}
	for i, s := range bad {
		s.Normalize()
		if _, err := s.Options(); err == nil {
			t.Fatalf("bad spec %d accepted: %+v", i, s)
		}
	}
}
