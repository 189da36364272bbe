package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slamgo/internal/hypermapper"
	"slamgo/internal/sharedfs"
)

// errNotLoaded is load's compute: reaching it means the artifact missed.
var errNotLoaded = errors.New("artifact not loaded")

// load resolves name through checkpointed over store (Store.Get with
// the checkpoint codec) without computing: it reports whether the
// artifact loaded into out, or the real I/O error that stopped it.
func load[T any](store *Store, name string, out *T) (bool, error) {
	v, hit, err := checkpointed(&runner{store: store}, name, func(T) bool { return true }, func() (T, error) {
		var zero T
		return zero, errNotLoaded
	})
	if errors.Is(err, errNotLoaded) {
		return false, nil
	}
	if hit {
		*out = v
	}
	return hit, err
}

// loadHit loads name and fails the test on a real I/O error; it returns
// whether the load was a hit.
func loadHit[T any](t *testing.T, store *Store, name string, out *T) bool {
	t.Helper()
	ok, err := load(store, name, out)
	if err != nil {
		t.Fatalf("load(%s): %v", name, err)
	}
	return ok
}

// save publishes payload as name's artifact through Store.Put,
// replacing any earlier one, sealed as checkpointed seals what it
// computes.
func save(store *Store, name string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return store.Put(name, checkpointFrame.Seal(name, raw))
}

// openDir opens a checkpoint store over dir with default plumbing.
func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	store, err := openStore(sharedfs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestStoreRoundTrip(t *testing.T) {
	store := openDir(t, filepath.Join(t.TempDir(), "ckpt"))
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

	if err := save(store, "full-c000-abc", art); err != nil {
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
	store := openDir(t, filepath.Join(t.TempDir(), "ckpt"))
	var out cellArtifact
	if loadHit(t, store, "absent", &out) {
		t.Fatal("absent artifact loaded")
	}
	// Corrupt file: a kill mid-write (pre-rename this cannot happen, but
	// a damaged disk can) must be a miss, not an error or bad data —
	// whether the frame or only the JSON inside it is damaged.
	if err := os.WriteFile(store.Path("broken"), []byte("{notjson"), 0o644); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "broken", &out) {
		t.Fatal("corrupt artifact loaded")
	}
	if err := store.Put("broken", checkpointFrame.Seal("broken", []byte("{notjson"))); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "broken", &out) {
		t.Fatal("sealed corrupt payload loaded")
	}
	// Truncated artifact: a prefix torn mid-payload (the torn write
	// FaultShortWrite simulates) must be a miss too.
	if err := save(store, "torn", &cellArtifact{Scenario: "lr_kt1"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Path("torn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path("torn"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "torn", &out) {
		t.Fatal("truncated artifact loaded")
	}
	// A file copied to the wrong name must not load under that name.
	if err := save(store, "right-name", &cellArtifact{Scenario: "lr_kt0"}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(store.Path("right-name"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path("wrong-name"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "wrong-name", &out) {
		t.Fatal("renamed artifact loaded under the wrong name")
	}
	// A version bump orphans old artifacts.
	future := sharedfs.Frame{Magic: checkpointFrame.Magic, Version: storeVersion + 1}
	if err := store.Put("future", future.Seal("future", []byte(`{"scenario":"lr_kt0"}`))); err != nil {
		t.Fatal(err)
	}
	if loadHit(t, store, "future", &out) {
		t.Fatal("artifact from a future store version loaded")
	}
}

// TestStoreBitFlipIsRecomputed flips one payload digit of a published
// checkpoint artifact — 17 evaluations become 71, still valid JSON —
// and requires the checksum to turn it into a miss that recomputes and
// republishes the true value, never a hit carrying the flipped one.
func TestStoreBitFlipIsRecomputed(t *testing.T) {
	store := openDir(t, filepath.Join(t.TempDir(), "ckpt"))
	r := &runner{store: store}
	computes := 0
	get := func() (cellArtifact, bool) {
		t.Helper()
		art, hit, err := checkpointed(r, "flip", func(cellArtifact) bool { return true }, func() (cellArtifact, error) {
			computes++
			return cellArtifact{Scenario: "lr_kt0", Evaluations: 17}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return art, hit
	}
	get()
	data, err := os.ReadFile(store.Path("flip"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(data, []byte(`"evaluations":17`), []byte(`"evaluations":71`), 1)
	if bytes.Equal(flipped, data) {
		t.Fatal("payload digit not found in the artifact")
	}
	if err := os.WriteFile(store.Path("flip"), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if art, hit := get(); hit || art.Evaluations != 17 || computes != 2 {
		t.Fatalf("flipped artifact: hit=%v evaluations=%d computes=%d, want a miss recomputing 17", hit, art.Evaluations, computes)
	}
	if art, hit := get(); !hit || art.Evaluations != 17 || computes != 2 {
		t.Fatalf("repaired artifact: hit=%v evaluations=%d computes=%d, want a hit of 17", hit, art.Evaluations, computes)
	}
}

// TestStoreLoadRealError proves an I/O fault that is not a data defect
// surfaces as an error, not a miss: a miss means "recompute", and
// recomputing over a faulting store would silently discard work.
func TestStoreLoadRealError(t *testing.T) {
	store := openDir(t, filepath.Join(t.TempDir(), "ckpt"))
	// A directory squatting on the artifact path: ReadFile fails with a
	// real error (EISDIR) that is not fs.ErrNotExist.
	if err := os.Mkdir(store.Path("blocked"), 0o755); err != nil {
		t.Fatal(err)
	}
	var out cellArtifact
	ok, err := load(store, "blocked", &out)
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
	store := openDir(t, dir)
	if err := save(store, "good", &cellArtifact{Scenario: "lr_kt0"}); err != nil {
		t.Fatal(err)
	}
	r := &runner{store: store}
	unmarshalable := func() (func(), error) { return func() {}, nil } // func marshals to an error
	if _, _, err := checkpointed(r, "bad", func(func()) bool { return true }, unmarshalable); err == nil {
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
	store := openDir(t, filepath.Join(t.TempDir(), "ckpt"))
	art := &cellArtifact{Scenario: "lr_kt2", Device: "odroid-xu3", Fidelity: FidelityFull, Evaluations: 7}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := save(store, "contended", art); err != nil {
					t.Errorf("save: %v", err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var out cellArtifact
				ok, err := load(store, "contended", &out)
				if err != nil {
					t.Errorf("load: %v", err)
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
	if _, err := openStore(sharedfs.Config{}); err == nil {
		t.Fatal("empty checkpoint directory accepted")
	}
}

// TestOpenStoreSweepsDebris seeds the checkpoint directory with the
// litter a SIGKILLed worker leaves behind — an aged half-written temp
// file and a lease whose holder's heartbeat is long past — and pins
// that openStore removes exactly that: fresh temp files (a live
// writer's rename in flight) and real artifacts must survive the sweep.
func TestOpenStoreSweepsDebris(t *testing.T) {
	dir := t.TempDir()
	store := openDir(t, dir)
	if err := save(store, "artifact", map[string]int{"x": 1}); err != nil {
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

	openDir(t, dir)
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
