package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"slamgo/internal/seqcache"
	"slamgo/internal/sharedfs"
)

// noCacheDebris fails the test if the cache directory holds leftover
// temp or lease files after a completed campaign.
func noCacheDebris(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	for _, e := range ents {
		if sharedfs.IsTempFile(e.Name()) {
			t.Fatalf("cache leaked temp file %s", e.Name())
		}
		if filepath.Ext(e.Name()) == ".lease" {
			t.Fatalf("cache leaked lease file %s", e.Name())
		}
	}
}

// TestSeqCacheByteIdenticalAcrossWorkerCounts is the cache acceptance
// check: the 4-scenario × 2-device campaign with a shared sequence
// cache renders a byte-identical report to the uncached run for workers
// 1, 4 and 8, and across the three runs sharing one store each distinct
// sequence is rendered exactly once — not once per cell (8), not once
// per run (12).
func TestSeqCacheByteIdenticalAcrossWorkerCounts(t *testing.T) {
	ref, err := Run(testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderReport(t, ref)
	if ref.SeqStats.DiskHits != 0 || ref.SeqStats.Degradations != 0 {
		t.Fatalf("uncached run touched a disk cache: %+v", ref.SeqStats)
	}

	const distinctSequences = 4 // lr_kt0, lr_kt1, lr_kt3, of_kt0
	dir := t.TempDir()
	totalRenders := 0
	for i, workers := range []int{1, 4, 8} {
		opts := testOptions(workers)
		opts.SeqCacheDir = dir
		res, err := Run(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatalf("workers=%d: cached report diverges from uncached run", workers)
		}
		st := res.SeqStats
		totalRenders += st.Renders
		if st.Degradations != 0 {
			t.Fatalf("workers=%d: healthy cache degraded: %+v", workers, st)
		}
		if i == 0 && st.Renders != distinctSequences {
			t.Fatalf("first run rendered %d sequences, want %d (once per distinct scale)",
				st.Renders, distinctSequences)
		}
		if i > 0 && (st.Renders != 0 || st.DiskHits != distinctSequences) {
			t.Fatalf("run %d should have loaded everything: %+v", i, st)
		}
	}
	if totalRenders != distinctSequences {
		t.Fatalf("store saw %d renders across three runs, want %d (once per shared store)",
			totalRenders, distinctSequences)
	}
	noCacheDebris(t, dir)
}

// TestSeqCacheMultiWorkerRenderOncePerStore runs three cooperating
// worker processes (in-process) sharing one checkpoint directory AND
// one sequence cache: every worker renders the reference report, and
// the workers' summed render counters prove each distinct sequence was
// rendered exactly once per shared store, not once per process.
func TestSeqCacheMultiWorkerRenderOncePerStore(t *testing.T) {
	_, refBytes, _ := referenceRun(t)

	const workers = 3
	ckpt, cacheDir := t.TempDir(), t.TempDir()
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := resumeOptions(2, ckpt)
			opts.WorkerID = fmt.Sprintf("w%d", w)
			opts.SeqCacheDir = cacheDir
			results[w], errs[w] = Run(opts)
		}(w)
	}
	wg.Wait()

	renders, degradations := 0, 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !bytes.Equal(renderReport(t, results[w]), refBytes) {
			t.Fatalf("worker %d report diverges from single-process uncached run", w)
		}
		renders += results[w].SeqStats.Renders
		degradations += results[w].SeqStats.Degradations
	}
	// Two distinct scales (lr_kt0, of_kt0) shared by four cells and
	// three processes: exactly two renders in the whole store.
	if renders != 2 {
		t.Fatalf("workers rendered %d sequences between them, want 2 (once per shared store)", renders)
	}
	if degradations != 0 {
		t.Fatalf("healthy shared cache degraded %d times", degradations)
	}
	noCacheDebris(t, cacheDir)
}

// TestSeqCacheFaultMatrix drives the campaign over the cache's injected
// fault scenarios: every fault completes the campaign with an unchanged
// report — degradation observable in provenance counters, never fatal,
// no leaked temp files.
func TestSeqCacheFaultMatrix(t *testing.T) {
	_, refBytes, _ := referenceRun(t)

	t.Run("corrupt artifact on read is silently re-rendered", func(t *testing.T) {
		dir := t.TempDir()
		warm := resumeOptions(1, "")
		warm.SeqCacheDir = dir
		if _, err := Run(warm); err != nil {
			t.Fatal(err)
		}
		// Single worker: each miss costs two load ops (the lookup, then
		// the re-check after acquiring the lease), so ops 0 and 2 are the
		// first loads of the two distinct scenarios; corrupt both.
		opts := resumeOptions(1, "")
		opts.SeqCacheDir = dir
		opts.cacheFaults = &sharedfs.FaultPlan{Load: map[int]sharedfs.FaultKind{
			0: sharedfs.FaultCorruptRead, 2: sharedfs.FaultCorruptRead,
		}}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("corrupt-read run diverges from reference")
		}
		st := res.SeqStats
		if st.Renders != 2 || st.Degradations != 0 {
			t.Fatalf("corruption is a miss, not a degradation: %+v", st)
		}
		// The re-renders repaired the store: a clean run disk-hits.
		clean := resumeOptions(1, "")
		clean.SeqCacheDir = dir
		res, err = Run(clean)
		if err != nil {
			t.Fatal(err)
		}
		if res.SeqStats.DiskHits != 2 || res.SeqStats.Renders != 0 {
			t.Fatalf("store not repaired after corrupt read: %+v", res.SeqStats)
		}
		noCacheDebris(t, dir)
	})

	t.Run("ENOSPC on save degrades to inline rendering", func(t *testing.T) {
		dir := t.TempDir()
		plan := &sharedfs.FaultPlan{Save: map[int]sharedfs.FaultKind{}}
		for i := 0; i < 16; i++ { // every retry attempt of both saves
			plan.Save[i] = sharedfs.FaultWriteError
		}
		opts := resumeOptions(1, "")
		opts.SeqCacheDir = dir
		opts.cacheFaults = plan
		opts.sleepFn = func(time.Duration) {} // don't serve out the retry ladder for real
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("full-disk run diverges from reference")
		}
		st := res.SeqStats
		if st.Renders != 2 || st.Degradations != 2 {
			t.Fatalf("full disk should degrade both sequences inline: %+v", st)
		}
		for _, c := range res.Cells {
			if c.SeqSource != string(seqcache.SourceInline) && c.SeqSource != string(seqcache.SourceMemory) {
				t.Fatalf("cell %s/%s seq source = %q, want inline or memory",
					c.Cell.Scenario.Name, c.Cell.Target.Name, c.SeqSource)
			}
		}
		noCacheDebris(t, dir)
	})

	t.Run("dead renderer's lease is taken over", func(t *testing.T) {
		dir := t.TempDir()
		opts := resumeOptions(1, "")
		opts.SeqCacheDir = dir
		opts.LeaseTTL = 500 * time.Millisecond
		// A renderer that died an hour ago still holds the first
		// scenario's sequence lease.
		key := opts.Scenarios[0].Scale.CacheKey()
		past := func() time.Time { return time.Now().Add(-time.Hour) }
		if _, ok, err := sharedfs.NewLeaseManager(dir, "dead", time.Second, past).TryAcquire(key); err != nil || !ok {
			t.Fatalf("staging dead renderer's lease: ok=%v err=%v", ok, err)
		}
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("takeover run diverges from reference")
		}
		st := res.SeqStats
		if st.Renders != 2 || st.Degradations != 0 {
			t.Fatalf("takeover should render normally: %+v", st)
		}
		if _, err := os.Stat(filepath.Join(dir, key+".lease")); !os.IsNotExist(err) {
			t.Fatalf("reclaimed sequence lease not released (stat err %v)", err)
		}
		noCacheDebris(t, dir)
	})

	t.Run("unusable cache directory never fails the campaign", func(t *testing.T) {
		parent := t.TempDir()
		blocked := filepath.Join(parent, "occupied")
		if err := os.WriteFile(blocked, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
		opts := resumeOptions(1, "")
		opts.SeqCacheDir = blocked
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(t, res), refBytes) {
			t.Fatal("broken-cache run diverges from reference")
		}
		if res.SeqStats.Degradations != 2 {
			t.Fatalf("broken cache should degrade both sequences: %+v", res.SeqStats)
		}
	})
}
