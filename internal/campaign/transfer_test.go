package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"slamgo/internal/core"
	"slamgo/internal/hypermapper"
)

// transferOptions is the shared 2-scenario × 2-device transfer grid:
// anchors on the diagonal (cells 0 and 3), borrowers off it (1 and 2).
// RandomSamples 8 against the default TransferSeeds 3 gives borrowers
// 3 seeds + one extra active round (3+2·2 = 7 vs 8+1·2 = 10 evals, 30%
// savings), comfortably clearing the ≥20% acceptance bar even if
// deduplication eats an observation.
func transferOptions(workers int, transfer bool, dir string) Options {
	base := core.Scale{Width: 48, Height: 36, Frames: 5, Noisy: false, Seed: 42}
	scen, err := SelectScenarios(base, []string{"lr_kt0", "lr_kt1"})
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
		RandomSamples:      8,
		ActiveIterations:   1,
		BatchPerIteration:  2,
		AccuracyLimit:      0.1,
		Seed:               11,
		Workers:            workers,
		MaxFrontCandidates: 1,
		Transfer:           transfer,
		CheckpointDir:      dir,
	}
}

// TestTransferTopology pins the anchor/donor scheme as a pure function
// of the grid shape.
func TestTransferTopology(t *testing.T) {
	// 4 scenarios × 2 targets: diagonal wraps over the targets.
	anchors := anchorIndices(4, 2)
	if !reflect.DeepEqual(anchors, []int{0, 3, 4, 7}) {
		t.Fatalf("anchors = %v", anchors)
	}
	// Borrower (s0,t1)=1: same-scenario anchor 0, then same-device
	// anchors (index mod 2 == 1) ascending.
	if got := donorIndices(1, 2, anchors); !reflect.DeepEqual(got, []int{0, 3, 7}) {
		t.Fatalf("donors(1) = %v", got)
	}
	// Borrower (s2,t1)=5: same-scenario anchor 4 first, then 3 and 7.
	if got := donorIndices(5, 2, anchors); !reflect.DeepEqual(got, []int{4, 3, 7}) {
		t.Fatalf("donors(5) = %v", got)
	}
	// A single-target grid anchors every scenario at its only cell, so
	// there are no borrowers — but donorIndices still behaves.
	if got := anchorIndices(3, 1); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("1-target anchors = %v", got)
	}
}

// perCellSims counts actual pipeline simulations per (cell, class).
type perCellSims struct {
	mu     sync.Mutex
	counts map[int]map[string]int
}

func (c *perCellSims) hook(cell int, class string) {
	c.mu.Lock()
	if c.counts == nil {
		c.counts = map[int]map[string]int{}
	}
	if c.counts[cell] == nil {
		c.counts[cell] = map[string]int{}
	}
	c.counts[cell][class]++
	c.mu.Unlock()
}

func (c *perCellSims) get(cell int, class string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[cell][class]
}

// TestTransferReducesFullSims is the headline acceptance check: against
// the transfer-off baseline on the same grid, every warm-started
// borrower spends at least 20% fewer full-fidelity exploration
// simulations, anchors are untouched (bit-identical fronts), and the
// summed shared-reference hypervolume of the transfer campaign's fronts
// is equal or better.
func TestTransferReducesFullSims(t *testing.T) {
	var offSims, onSims perCellSims
	offOpts := transferOptions(2, false, "")
	offOpts.observeSimulation = offSims.hook
	off, err := Run(offOpts)
	if err != nil {
		t.Fatal(err)
	}
	onOpts := transferOptions(2, true, "")
	onOpts.observeSimulation = onSims.hook
	on, err := Run(onOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Anchors (0 and 3) explore from scratch: identical artifacts.
	for _, i := range []int{0, 3} {
		if on.Cells[i].TransferBorrower || on.Cells[i].TransferSeeds != 0 {
			t.Fatalf("anchor cell %d marked as borrower: %+v", i, on.Cells[i])
		}
		if !reflect.DeepEqual(on.Cells[i].Front, off.Cells[i].Front) {
			t.Fatalf("anchor cell %d front changed under transfer", i)
		}
		if got, want := onSims.get(i, simFull), offSims.get(i, simFull); got != want {
			t.Fatalf("anchor cell %d spent %d full sims under transfer, %d without", i, got, want)
		}
	}
	// Borrowers (1 and 2) warm-start and spend ≥20% fewer full sims.
	for _, i := range []int{1, 2} {
		c := on.Cells[i]
		if !c.TransferBorrower || len(c.TransferDonors) == 0 || c.TransferSeeds == 0 {
			t.Fatalf("borrower cell %d did not warm-start: %+v", i, c)
		}
		offFull, onFull := offSims.get(i, simFull), onSims.get(i, simFull)
		if onFull > offFull*4/5 {
			t.Fatalf("borrower cell %d: %d full sims with transfer vs %d without (< 20%% reduction)",
				i, onFull, offFull)
		}
		if c.FullFidelityEvals != onFull {
			t.Fatalf("borrower cell %d reports %d full evals, instrumented %d",
				i, c.FullFidelityEvals, onFull)
		}
	}
	// Shared-reference hypervolume over all eight fronts: the transfer
	// campaign's total must be equal or better.
	var fronts [][]hypermapper.Observation
	for _, c := range off.Cells {
		fronts = append(fronts, c.Front)
	}
	for _, c := range on.Cells {
		fronts = append(fronts, c.Front)
	}
	hv := hypermapper.FrontHypervolumes(fronts, hypermapper.RuntimeAccuracy)
	offHV, onHV := 0.0, 0.0
	for i, v := range hv {
		if i < len(off.Cells) {
			offHV += v
		} else {
			onHV += v
		}
	}
	if onHV < offHV {
		t.Fatalf("transfer degraded front quality: hypervolume %g with transfer vs %g without", onHV, offHV)
	}

	// The report renders the provenance columns and efficiency summary.
	rep := renderReport(t, on)
	for _, want := range []string{"donors", "seeds", "transfer:", "transfer_borrower"} {
		if !bytes.Contains(rep, []byte(want)) {
			t.Fatalf("transfer report lacks %q", want)
		}
	}
	if bytes.Contains(renderReport(t, off), []byte("transfer")) {
		t.Fatal("transfer-off report mentions transfer")
	}
}

// TestTransferDeterministicAcrossWorkers: the two-wave schedule keeps
// the campaign's core invariant — bit-identical reports for any worker
// count (run under -race via make race).
func TestTransferDeterministicAcrossWorkers(t *testing.T) {
	ref, err := Run(transferOptions(1, true, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ref.Cells {
		if c.Evaluations == 0 {
			t.Fatalf("cell %s/%s ran no evaluations", c.Cell.Scenario.Name, c.Cell.Target.Name)
		}
	}
	if !ref.HasRobust {
		t.Fatal("transfer campaign produced no robust configuration")
	}
	refBytes := renderReport(t, ref)
	for _, workers := range []int{4, 8} {
		got, err := Run(transferOptions(workers, true, ""))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, got), refBytes) {
			t.Fatalf("workers=%d transfer report diverges from workers=1", workers)
		}
	}
}

// TestTransferObsLogPersistedAndResumed: a transfer campaign rerun over
// its checkpoint store replays from artifacts alone — borrowers read
// their donors' observations from the anchors' exploration artifacts —
// with zero simulations and a byte-identical report.
func TestTransferObsLogPersistedAndResumed(t *testing.T) {
	dir := t.TempDir()
	first, err := Run(transferOptions(2, true, dir))
	if err != nil {
		t.Fatal(err)
	}

	var sims simCounter
	opts := transferOptions(2, true, dir)
	opts.observeSimulation = sims.hook
	again, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sims.total() != 0 {
		t.Fatalf("resumed transfer campaign re-simulated %d times", sims.total())
	}
	if !bytes.Equal(renderReport(t, again), renderReport(t, first)) {
		t.Fatal("resumed transfer report diverges from the original")
	}
}

// TestTransferQuarantinedAnchorDegrades: poisoning an anchor must not
// take its borrowers down — they lose that donor, warm-start from the
// surviving one, and the campaign still aggregates deterministically.
func TestTransferQuarantinedAnchorDegrades(t *testing.T) {
	const poisoned = 0 // anchor of scenario lr_kt0
	run := func(workers int) *Result {
		opts := transferOptions(workers, true, "")
		opts.observeSimulation = func(cell int, class string) {
			if cell == poisoned {
				panic("poisoned anchor")
			}
		}
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("poisoned transfer campaign aborted: %v", err)
		}
		return res
	}
	res := run(2)
	if !res.Cells[poisoned].Failed {
		t.Fatal("poisoned anchor not quarantined")
	}
	surviving := "lr_kt1/pixel-adreno530" // the other diagonal anchor
	for _, i := range []int{1, 2} {
		c := res.Cells[i]
		if !c.TransferBorrower {
			t.Fatalf("cell %d lost its borrower role", i)
		}
		if len(c.TransferDonors) != 1 || c.TransferDonors[0] != surviving {
			t.Fatalf("cell %d donors = %v, want just %q", i, c.TransferDonors, surviving)
		}
		if c.TransferSeeds == 0 {
			t.Fatalf("cell %d borrowed no seeds from the surviving anchor", i)
		}
		if c.Failed {
			t.Fatalf("borrower cell %d quarantined by its donor's failure", i)
		}
	}
	if !bytes.Equal(renderReport(t, run(4)), renderReport(t, res)) {
		t.Fatal("degraded transfer campaign not deterministic across worker counts")
	}
}

// TestTransferCooperatingWorkers: three worker processes sharing one
// checkpoint directory run the two-wave schedule through the lease
// protocol — every worker drives wave 1 for all anchors (computing or
// loading each artifact) before its borrowers start, so all three
// render the identical report and the summed simulation counts equal a
// single-process run's (run under -race via make race).
func TestTransferCooperatingWorkers(t *testing.T) {
	var refSims simCounter
	refOpts := transferOptions(1, true, "")
	refOpts.observeSimulation = refSims.hook
	ref, err := Run(refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)

	const workers = 3
	dir := t.TempDir()
	results := make([]*Result, workers)
	errs := make([]error, workers)
	sims := make([]simCounter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := transferOptions(2, true, dir)
			opts.WorkerID = fmt.Sprintf("w%d", w)
			opts.observeSimulation = sims[w].hook
			results[w], errs[w] = Run(opts)
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !bytes.Equal(renderReport(t, results[w]), refBytes) {
			t.Fatalf("worker %d transfer report diverges from single-process run", w)
		}
	}
	for _, class := range simClasses {
		total := 0
		for w := range sims {
			total += sims[w].get(class)
		}
		if total != refSims.get(class) {
			t.Fatalf("workers spent %d %s simulations, single-process run %d", total, class, refSims.get(class))
		}
	}
}
