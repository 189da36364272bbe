package seqcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"slamgo/internal/camera"
	"slamgo/internal/dataset"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/sharedfs"
)

// testSeq builds a small synthetic sequence exercising every format
// branch: ground truth on/off, RGB on/off, distinct float payloads.
func testSeq(name string, frames int) *dataset.MemorySequence {
	seq := &dataset.MemorySequence{
		SeqName: name,
		Intr:    camera.Intrinsics{Width: 4, Height: 3, Fx: 481.2, Fy: 480, Cx: 1.5, Cy: 1.25},
	}
	for i := 0; i < frames; i++ {
		f := &dataset.Frame{Index: i, Time: float64(i) / 30}
		f.Depth = &imgproc.DepthMap{Width: 4, Height: 3, Pix: make([]float32, 12)}
		for p := range f.Depth.Pix {
			f.Depth.Pix[p] = float32(i)*0.125 + float32(p)*0.0625
		}
		if i%2 == 0 {
			f.HasGT = true
			f.GroundTruth = math3.SE3{
				R: math3.Mat3{M: [3][3]float64{{1, 0, 0}, {0, 0.8, -0.6}, {0, 0.6, 0.8}}},
				T: math3.Vec3{X: 0.1 * float64(i), Y: -0.2, Z: 1.5},
			}
		}
		if i%3 == 0 {
			f.RGB = &imgproc.RGB{Width: 4, Height: 3, Pix: bytes.Repeat([]byte{byte(i)}, 36)}
		}
		seq.Frames = append(seq.Frames, f)
	}
	return seq
}

// renderer returns a RenderFunc serving seq and counting invocations.
func renderer(seq *dataset.MemorySequence, calls *int) RenderFunc {
	return func() (*dataset.MemorySequence, error) {
		*calls++
		return seq, nil
	}
}

// open builds a disk cache over dir with fast test plumbing.
func open(t *testing.T, dir string, mut func(*Options)) *Cache {
	t.Helper()
	opts := Options{
		Dir:      dir,
		Worker:   "tester",
		LeaseTTL: time.Minute,
		Sleep:    func(time.Duration) {},
		Log:      t.Logf,
	}
	if mut != nil {
		mut(&opts)
	}
	return New(opts)
}

// noDebris fails the test if the cache directory leaked temp files.
func noDebris(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range ents {
		if sharedfs.IsTempFile(e.Name()) {
			t.Fatalf("leaked temp file %s", e.Name())
		}
	}
}

func TestEncodeDecodeRoundtripBitExact(t *testing.T) {
	seq := testSeq("lr_kt0_syn", 7)
	data := Encode("seq-roundtrip", seq)
	key, got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if key != "seq-roundtrip" {
		t.Fatalf("key = %q", key)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Fatalf("decoded sequence differs from encoded one")
	}
	// Encoding is a pure function: two encodes are byte-identical (this
	// is what makes concurrent cache writers benign).
	if !bytes.Equal(data, Encode("seq-roundtrip", seq)) {
		t.Fatalf("Encode is not deterministic")
	}
}

// TestEncodeGoldenBytes pins the SQC1 artifact bytes of a fixed
// sequence to a digest of the format as first released: a cache
// directory written by any earlier build must keep loading as hits.
func TestEncodeGoldenBytes(t *testing.T) {
	const want = "08365511ad1100bf444223ab5bd6f2e2ff1f6d4ea4b59a0ad2c84d6ed28d6e2e"
	if got := fmt.Sprintf("%x", sha256.Sum256(Encode("seq-golden", testSeq("golden", 4)))); got != want {
		t.Fatalf("SQC1 bytes changed: sha256 %s, want %s", got, want)
	}
}

func TestDecodeRejectsEveryDefect(t *testing.T) {
	seq := testSeq("s", 3)
	good := Encode("k", seq)
	damage := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)/2],
		"bit flip":  append(append([]byte{}, good[:100]...), append([]byte{good[100] ^ 0x01}, good[101:]...)...),
		"trailing":  append(append([]byte{}, good...), 0),
	}
	for name, data := range damage {
		if _, _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted damaged artifact", name)
		}
	}
	// A version bump orphans old artifacts (checksum re-stamped so only
	// the version check can reject it).
	v := append([]byte{}, good[:len(good)-sha256.Size]...)
	v[len(frame.Magic)]++ // first byte of the little-endian version
	if _, _, err := Decode(Encode("k", seq)); err != nil {
		t.Fatalf("control: %v", err)
	}
	sum := sha256.Sum256(v)
	if _, _, err := Decode(append(v, sum[:]...)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
}

func TestRenderOncePerStoreAcrossCacheInstances(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 5)
	calls := 0

	c1 := open(t, dir, nil)
	got, src, err := c1.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceRender {
		t.Fatalf("first acquire = %v, %v; want render", src, err)
	}
	if !reflect.DeepEqual(got, seq) {
		t.Fatalf("rendered sequence mangled")
	}
	if _, src, _ = c1.Sequence("seq-a", renderer(seq, &calls)); src != SourceMemory {
		t.Fatalf("repeat acquire = %v, want memory", src)
	}

	// A second cache instance (a new process) loads the artifact.
	c2 := open(t, dir, nil)
	got2, src, err := c2.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceDisk {
		t.Fatalf("cross-process acquire = %v, %v; want disk hit", src, err)
	}
	if !reflect.DeepEqual(got2, seq) {
		t.Fatalf("loaded sequence differs from rendered one")
	}
	if calls != 1 {
		t.Fatalf("renderer called %d times, want 1 (render once per shared store)", calls)
	}
	s1, s2 := c1.Stats(), c2.Stats()
	if s1.Renders != 1 || s1.MemoryHits != 1 || s2.DiskHits != 1 || s1.Degradations+s2.Degradations != 0 {
		t.Fatalf("stats = %+v / %+v", s1, s2)
	}
	noDebris(t, dir)
}

func TestCorruptArtifactSilentlyReRenderedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 4)
	calls := 0
	open(t, dir, nil).Sequence("seq-a", renderer(seq, &calls))

	// Bit-rot the artifact in place.
	path := filepath.Join(dir, "seq-a.seq")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)/2] ^= 0x5a
	os.WriteFile(path, data, 0o644)

	c := open(t, dir, nil)
	got, src, err := c.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceRender {
		t.Fatalf("corrupt acquire = %v, %v; want silent re-render", src, err)
	}
	if !reflect.DeepEqual(got, seq) || calls != 2 {
		t.Fatalf("re-render wrong (calls=%d)", calls)
	}
	if st := c.Stats(); st.Degradations != 0 {
		t.Fatalf("corruption counted as degradation: %+v (it is a plain miss)", st)
	}
	// The re-render repaired the artifact: a third instance disk-hits.
	if _, src, _ = open(t, dir, nil).Sequence("seq-a", renderer(seq, &calls)); src != SourceDisk {
		t.Fatalf("post-repair acquire = %v, want disk hit", src)
	}
	noDebris(t, dir)
}

func TestMisfiledArtifactIsAMiss(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	calls := 0
	open(t, dir, nil).Sequence("seq-a", renderer(seq, &calls))
	data, _ := os.ReadFile(filepath.Join(dir, "seq-a.seq"))
	os.WriteFile(filepath.Join(dir, "seq-b.seq"), data, 0o644)

	if _, src, _ := open(t, dir, nil).Sequence("seq-b", renderer(seq, &calls)); src != SourceRender {
		t.Fatalf("misfiled acquire = %v, want re-render", src)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestSaveENOSPCDegradesInline(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	calls := 0
	c := open(t, dir, nil)
	// Every retry attempt hits the full disk.
	plan := sharedfs.FaultPlan{Save: map[int]sharedfs.FaultKind{}}
	for i := 0; i < 8; i++ {
		plan.Save[i] = sharedfs.FaultWriteError
	}
	c.InjectFaults(plan)
	got, src, err := c.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceInline {
		t.Fatalf("ENOSPC acquire = %v, %v; want inline degradation", src, err)
	}
	if !reflect.DeepEqual(got, seq) || calls != 1 {
		t.Fatalf("inline sequence wrong (calls=%d)", calls)
	}
	st := c.Stats()
	if st.Renders != 1 || st.Degradations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Injected() == 0 {
		t.Fatalf("fault plan never fired")
	}
	noDebris(t, dir)
}

func TestTransientShortWriteRetriesToSuccess(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	calls := 0
	c := open(t, dir, nil)
	c.InjectFaults(sharedfs.FaultPlan{Save: map[int]sharedfs.FaultKind{0: sharedfs.FaultShortWrite}})
	if _, src, err := c.Sequence("seq-a", renderer(seq, &calls)); err != nil || src != SourceRender {
		t.Fatalf("acquire = %v, %v; want render (retry healed the torn write)", src, err)
	}
	// The retried save replaced the torn file whole.
	if _, src, _ := open(t, dir, nil).Sequence("seq-a", renderer(seq, &calls)); src != SourceDisk {
		t.Fatalf("post-retry artifact unreadable")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	noDebris(t, dir)
}

func TestReadErrorDegradesInline(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	calls := 0
	open(t, dir, nil).Sequence("seq-a", renderer(seq, &calls))

	c := open(t, dir, nil)
	plan := sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{}}
	for i := 0; i < 8; i++ {
		plan.Load[i] = sharedfs.FaultReadError
	}
	c.InjectFaults(plan)
	got, src, err := c.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceInline {
		t.Fatalf("EIO acquire = %v, %v; want inline degradation", src, err)
	}
	if !reflect.DeepEqual(got, seq) || calls != 2 {
		t.Fatalf("inline sequence wrong (calls=%d)", calls)
	}
	if st := c.Stats(); st.Degradations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInjectedCorruptReadIsAMissNotADegradation(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	calls := 0
	open(t, dir, nil).Sequence("seq-a", renderer(seq, &calls))

	c := open(t, dir, nil)
	c.InjectFaults(sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{0: sharedfs.FaultCorruptRead}})
	if _, src, err := c.Sequence("seq-a", renderer(seq, &calls)); err != nil || src != SourceRender {
		t.Fatalf("corrupt-read acquire = %v, %v; want silent re-render", src, err)
	}
	if st := c.Stats(); st.Degradations != 0 || st.Renders != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeadRendererLeaseTakeover(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	calls := 0

	// A renderer that died an hour ago still holds the key's lease.
	past := func() time.Time { return time.Now().Add(-time.Hour) }
	dead := sharedfs.NewLeaseManager(dir, "dead-renderer", time.Minute, past)
	if _, ok, err := dead.TryAcquire("seq-a"); !ok || err != nil {
		t.Fatalf("planting stale lease: %v", err)
	}

	c := open(t, dir, func(o *Options) { o.LeaseTTL = 50 * time.Millisecond })
	got, src, err := c.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceRender {
		t.Fatalf("takeover acquire = %v, %v; want render", src, err)
	}
	if !reflect.DeepEqual(got, seq) || calls != 1 {
		t.Fatalf("takeover render wrong (calls=%d)", calls)
	}
	// The takeover released the lease after publishing.
	if _, err := os.Stat(filepath.Join(dir, "seq-a.lease")); !os.IsNotExist(err) {
		t.Fatalf("lease not released after takeover render")
	}
	noDebris(t, dir)
}

func TestLiveHolderPublicationArrivesDuringPoll(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	calls := 0

	peer := sharedfs.NewLeaseManager(dir, "peer", time.Hour, nil)
	if _, ok, err := peer.TryAcquire("seq-a"); !ok || err != nil {
		t.Fatalf("planting live lease: %v", err)
	}
	// The peer "publishes" while we sleep on its lease.
	published := false
	c := open(t, dir, func(o *Options) {
		o.LeaseTTL = time.Hour
		o.Sleep = func(time.Duration) {
			if !published {
				published = true
				os.WriteFile(filepath.Join(dir, "seq-a.seq"), Encode("seq-a", seq), 0o644)
			}
		}
	})
	got, src, err := c.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceDisk {
		t.Fatalf("waiting acquire = %v, %v; want disk hit from peer", src, err)
	}
	if !reflect.DeepEqual(got, seq) || calls != 0 {
		t.Fatalf("peer's frames not used (calls=%d)", calls)
	}
}

func TestWedgedHolderBoundedThenInline(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	calls := 0

	// A holder that heartbeats forever but never publishes: TTL never
	// expires, nothing to load. The poll budget must bound the wait.
	peer := sharedfs.NewLeaseManager(dir, "wedged", time.Hour, nil)
	if _, ok, err := peer.TryAcquire("seq-a"); !ok || err != nil {
		t.Fatalf("planting wedged lease: %v", err)
	}
	c := open(t, dir, func(o *Options) { o.LeaseTTL = time.Hour })
	got, src, err := c.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceInline {
		t.Fatalf("wedged acquire = %v, %v; want inline degradation", src, err)
	}
	if !reflect.DeepEqual(got, seq) || calls != 1 {
		t.Fatalf("inline render wrong (calls=%d)", calls)
	}
	if st := c.Stats(); st.Degradations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPanickingRenderReleasesLease: a render that panics (campaign cells
// quarantine those) must release the key's lease, or every later caller
// of the key — in this process or a peer — waits out the poll bound
// before rendering inline.
func TestPanickingRenderReleasesLease(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 3)
	c := open(t, dir, nil)
	func() {
		defer func() { recover() }()
		c.Sequence("seq-a", func() (*dataset.MemorySequence, error) { panic("render panic") })
		t.Fatal("panic swallowed")
	}()
	calls := 0
	if _, src, err := c.Sequence("seq-a", renderer(seq, &calls)); err != nil || src != SourceRender || calls != 1 {
		t.Fatalf("post-panic acquire = %v, %v after %d renders; want a prompt render", src, err, calls)
	}
	if st := c.Stats(); st.Degradations != 0 {
		t.Fatalf("post-panic render degraded: %+v", st)
	}
}

func TestEvictionIsDeterministicAndSparesNewestWrite(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 4)
	one := len(Encode("seq-a", seq))
	calls := 0
	// Budget for about two artifacts: publishing the third must evict
	// exactly one, and in lexicographic order with the fresh write
	// exempt that is always "seq-a".
	c := open(t, dir, func(o *Options) { o.MaxBytes = int64(2*one + one/2) })
	for _, key := range []string{"seq-a", "seq-b", "seq-c"} {
		if _, _, err := c.Sequence(key, renderer(seq, &calls)); err != nil {
			t.Fatalf("acquire %s: %v", key, err)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (stats %+v)", st.Evictions, st)
	}
	if _, err := os.Stat(filepath.Join(dir, "seq-a.seq")); !os.IsNotExist(err) {
		t.Fatalf("seq-a should have been evicted (lexicographic order)")
	}
	for _, key := range []string{"seq-b", "seq-c"} {
		if _, err := os.Stat(filepath.Join(dir, key+".seq")); err != nil {
			t.Fatalf("%s should have survived: %v", key, err)
		}
	}
	// An evicted artifact is a plain miss for the next process.
	if _, src, _ := open(t, dir, nil).Sequence("seq-a", renderer(seq, &calls)); src != SourceRender {
		t.Fatalf("evicted acquire = %v, want re-render", src)
	}
}

func TestDebrisSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-time.Hour)
	tmp := filepath.Join(dir, ".tmp-seq-a-zzz")
	os.WriteFile(tmp, []byte("half a frame"), 0o644)
	os.Chtimes(tmp, old, old)
	dead := sharedfs.NewLeaseManager(dir, "dead", time.Minute, func() time.Time { return old })
	dead.TryAcquire("seq-a")

	open(t, dir, nil)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived open")
	}
	if _, err := os.Stat(filepath.Join(dir, "seq-a.lease")); !os.IsNotExist(err) {
		t.Fatalf("orphaned lease survived open")
	}
}

func TestUnusableDirectoryDegradesEverything(t *testing.T) {
	// A file where the directory should be: MkdirAll fails, the cache
	// opens broken, every acquisition renders inline.
	parent := t.TempDir()
	blocked := filepath.Join(parent, "occupied")
	os.WriteFile(blocked, []byte("not a directory"), 0o644)
	seq := testSeq("s", 3)
	calls := 0
	c := open(t, blocked, nil)
	got, src, err := c.Sequence("seq-a", renderer(seq, &calls))
	if err != nil || src != SourceInline {
		t.Fatalf("broken-dir acquire = %v, %v; want inline", src, err)
	}
	if !reflect.DeepEqual(got, seq) || calls != 1 {
		t.Fatalf("inline render wrong")
	}
	if st := c.Stats(); st.Degradations != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemoryOnlyMode(t *testing.T) {
	seq := testSeq("s", 3)
	calls := 0
	c := New(Options{Log: func(string, ...any) {}})
	if _, src, err := c.Sequence("seq-a", renderer(seq, &calls)); err != nil || src != SourceRender {
		t.Fatalf("memory-only first acquire = %v, %v", src, err)
	}
	if _, src, _ := c.Sequence("seq-a", renderer(seq, &calls)); src != SourceMemory {
		t.Fatalf("memory-only repeat not memoised")
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	if st := c.Stats(); st.Degradations != 0 {
		t.Fatalf("memory-only mode counted degradations: %+v", st)
	}
}

func TestConcurrentAcquisitionsSingleFlight(t *testing.T) {
	dir := t.TempDir()
	seq := testSeq("s", 5)
	var mu chan struct{} = make(chan struct{}) // closed when render ran
	c := open(t, dir, nil)
	var calls int32
	render := func() (*dataset.MemorySequence, error) {
		select {
		case <-mu:
			t.Error("renderer entered twice")
		default:
			close(mu)
		}
		calls++
		time.Sleep(10 * time.Millisecond) // widen the race window
		return seq, nil
	}
	done := make(chan Source, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, src, err := c.Sequence("seq-a", render)
			if err != nil {
				t.Errorf("concurrent acquire: %v", err)
			}
			done <- src
		}()
	}
	renders := 0
	for i := 0; i < 8; i++ {
		if <-done == SourceRender {
			renders++
		}
	}
	if renders != 1 {
		t.Fatalf("%d goroutines rendered, want exactly 1", renders)
	}
	if st := c.Stats(); st.Renders != 1 || st.MemoryHits != 7 {
		t.Fatalf("stats = %+v", st)
	}
}
