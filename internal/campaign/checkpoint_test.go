package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slamgo/internal/hypermapper"
	"slamgo/internal/sharedfs"
)

// loadHit loads name and fails the test on a real I/O error; it returns
// whether the load was a hit.
func loadHit(t *testing.T, store *Store, name string, out any) bool {
	t.Helper()
	ok, err := store.Load(name, out)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return ok
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	art := &cellArtifact{
		Scenario: "lr_kt0", Device: "odroid-xu3", Fidelity: FidelityFull,
		Observations: []hypermapper.Observation{
			{X: hypermapper.Point{1, 0.3}, M: hypermapper.Metrics{Runtime: 0.125, MaxATE: 0.0123456789012345}},
			{X: hypermapper.Point{2, 0.7}, M: hypermapper.Metrics{Failed: true}},
			{X: hypermapper.Point{3, 0.1}, M: hypermapper.Metrics{Runtime: 0.5, LowFidelity: true}},
		},
		Evaluations: 3, FullFidelityEvals: 2, LowFidelityEvals: 1,
	}
	art.Front = art.Observations[:1]
	art.BestFeasible, art.HasBestFeasible = art.Observations[0], true

	if err := store.Save("full-c000-abc", art); err != nil {
		t.Fatal(err)
	}
	var back cellArtifact
	if !loadHit(t, store, "full-c000-abc", &back) {
		t.Fatal("saved artifact not loadable")
	}
	a, _ := json.Marshal(art)
	b, _ := json.Marshal(&back)
	if string(a) != string(b) {
		t.Fatalf("artifact did not round-trip:\n%s\n%s", a, b)
	}
}

// TestStoreMisses proves every data-defect shape is a miss (false, nil)
// — safe to recompute — never an error and never bad data.
func TestStoreMisses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out cellArtifact
	if loadHit(t, store, "absent", &out) {
		t.Fatal("absent artifact loaded")
	}
	// Corrupt file: a kill mid-write (pre-rename this cannot happen, but
	// a damaged disk can) must be a miss, not an error or bad data.
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{notjson"), 0o644); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "broken", &out) {
		t.Fatal("corrupt artifact loaded")
	}
	// Truncated artifact: valid JSON prefix torn mid-payload (the torn
	// write FaultShortWrite simulates) must be a miss too.
	if err := store.Save("torn", &cellArtifact{Scenario: "lr_kt1"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "torn.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.json"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "torn", &out) {
		t.Fatal("truncated artifact loaded")
	}
	// A file copied to the wrong name must not load under that name.
	if err := store.Save("right-name", &cellArtifact{Scenario: "lr_kt0"}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "right-name.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wrong-name.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "wrong-name", &out) {
		t.Fatal("renamed artifact loaded under the wrong name")
	}
	// A version bump orphans old artifacts.
	env := envelope{Version: storeVersion + 1, Name: "future"}
	raw, _ := json.Marshal(env)
	if err := os.WriteFile(filepath.Join(dir, "future.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "future", &out) {
		t.Fatal("artifact from a future store version loaded")
	}
}

// TestStoreLoadRealError proves an I/O fault that is not a data defect
// surfaces as an error, not a miss: a miss means "recompute", and
// recomputing over a faulting store would silently discard work.
func TestStoreLoadRealError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the artifact path: ReadFile fails with a
	// real error (EISDIR) that is not fs.ErrNotExist.
	if err := os.Mkdir(filepath.Join(dir, "blocked.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	var out cellArtifact
	ok, err := store.Load("blocked", &out)
	if ok {
		t.Fatal("directory loaded as artifact")
	}
	if err == nil {
		t.Fatal("real I/O fault reported as a plain miss")
	}
}

// TestStoreSaveLeavesNoTempFiles proves both the success path and the
// marshal-failure path clean up their temp files — leaked temp files in
// a shared store directory would accumulate across worker crashes.
func TestStoreSaveLeavesNoTempFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("good", &cellArtifact{Scenario: "lr_kt0"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("bad", func() {}); err == nil { // func marshals to an error
		t.Fatal("unmarshalable payload saved")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file leaked: %s", e.Name())
		}
	}
}

// TestStoreConcurrentSaveLoad hammers one name from several goroutines
// saving identical bytes while others load — the multi-process shared
// directory contract, minus the processes. Run under -race; every
// successful load must see a complete, correct artifact.
func TestStoreConcurrentSaveLoad(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	art := &cellArtifact{Scenario: "lr_kt2", Device: "odroid-xu3", Fidelity: FidelityFull, Evaluations: 7}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := store.Save("contended", art); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var out cellArtifact
				ok, err := store.Load("contended", &out)
				if err != nil {
					t.Errorf("Load: %v", err)
					return
				}
				if ok && (out.Scenario != "lr_kt2" || out.Evaluations != 7) {
					t.Errorf("partial artifact observed: %+v", out)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestOpenStoreRejectsEmptyDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Fatal("empty checkpoint directory accepted")
	}
}

// TestOpenStoreSweepsDebris seeds the checkpoint directory with the
// litter a SIGKILLed worker leaves behind — an aged half-written temp
// file and a lease whose holder's heartbeat is long past — and pins
// that OpenStore removes exactly that: fresh temp files (a live
// writer's rename in flight) and real artifacts must survive the sweep.
func TestOpenStoreSweepsDebris(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("artifact", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}

	old := time.Now().Add(-time.Hour)
	staleTmp := filepath.Join(dir, ".tmp-artifact-12345")
	if err := os.WriteFile(staleTmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(staleTmp, old, old); err != nil {
		t.Fatal(err)
	}
	freshTmp := filepath.Join(dir, ".tmp-artifact-67890")
	if err := os.WriteFile(freshTmp, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A dead worker's lease: planted through the real lease manager with
	// a clock an hour in the past, so its embedded heartbeat is ancient.
	past := func() time.Time { return old }
	if _, ok, err := sharedfs.NewLeaseManager(dir, "dead-worker", time.Second, past).TryAcquire("cell-0"); err != nil || !ok {
		t.Fatalf("seeding dead worker's lease: ok=%v err=%v", ok, err)
	}

	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{staleTmp, filepath.Join(dir, "cell-0.lease")} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("debris %s survived the open (stat err %v)", filepath.Base(gone), err)
		}
	}
	if _, err := os.Stat(freshTmp); err != nil {
		t.Errorf("live writer's fresh temp file was swept: %v", err)
	}
	if !loadHit(t, store, "artifact", &map[string]int{}) {
		t.Error("real artifact lost to the debris sweep")
	}
}
