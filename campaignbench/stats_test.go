package main

import (
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: p99 leaves 10 beyond (991..1000), p99.9 only 1.
	p, v, n, ok := tailPercentile(xs, 10)
	if !ok || p != 99 || v != 990 || n != 10 {
		t.Fatalf("got p%v=%v beyond=%d ok=%v, want p99=990 beyond=10", p, v, n, ok)
	}
	// 100 samples: p90 leaves exactly 10 beyond.
	p, v, n, ok = tailPercentile(xs[:100], 10)
	if !ok || p != 90 || v != 90 || n != 10 {
		t.Fatalf("got p%v=%v beyond=%d ok=%v, want p90=90 beyond=10", p, v, n, ok)
	}
	// 15 samples: even the median leaves only 7 beyond.
	if _, _, _, ok := tailPercentile(xs[:15], 10); ok {
		t.Fatal("15 samples cannot support a percentile with 10 beyond")
	}
	// Ties with the percentile value are not beyond it.
	tied := make([]float64, 200)
	for i := range tied {
		tied[i] = 1
	}
	for i := 190; i < 200; i++ {
		tied[i] = 5
	}
	p, v, n, ok = tailPercentile(tied, 10)
	if !ok || p != 95 || v != 1 || n != 10 {
		t.Fatalf("tied: got p%v=%v beyond=%d ok=%v, want p95=1 beyond=10", p, v, n, ok)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(40)},   // 30
		{at(30), at(50)},   // overlaps the first: union 10..50
		{at(45), at(48)},   // nested inside the union
		{at(90), at(130)},  // sticks out: clipped to 90..100
		{at(-20), at(5)},   // starts before: clipped to 0..5
		{at(200), at(300)}, // entirely outside
	}
	// Covered: 0..5 (5) + 10..50 (40) + 90..100 (10) = 55ms.
	if got := selfTime(parent, children); got != 45*time.Millisecond {
		t.Fatalf("self time %v, want 45ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("childless self time %v, want 100ms", got)
	}
}

func TestTallyErrorRate(t *testing.T) {
	var tl tally
	tl.campaign(campaignCounts{cells: 4, resolved: 90, seqAcquired: 2})
	if tl.attempted != 97 || tl.failed != 0 || tl.errorRate() != 0 {
		t.Fatalf("clean campaign: %+v rate %v", tl, tl.errorRate())
	}
	tl.campaign(campaignCounts{cells: 4, cellsFailed: 1, resolved: 10, evalDegr: 2, seqAcquired: 2, seqDegr: 1})
	tl.request(true)
	tl.request(false)
	// attempted: 97 + (1+4+10+2) + 2 = 116; failed: 1+2+1 + 1 = 5.
	if tl.attempted != 116 || tl.failed != 5 {
		t.Fatalf("tally %+v, want 116 attempted, 5 failed", tl)
	}
	if got, want := tl.errorRate(), 5.0/116; got != want {
		t.Fatalf("error rate %v, want %v", got, want)
	}
	var failedRun tally
	failedRun.campaign(campaignCounts{err: true})
	if failedRun.attempted != 1 || failedRun.failed != 1 {
		t.Fatalf("failed campaign: %+v", failedRun)
	}
	if (tally{}).errorRate() != 0 {
		t.Fatal("empty tally must report 0")
	}
}

func TestDupSims(t *testing.T) {
	// Two jobs simulated 60 and 50 configurations into one store that
	// ended with 100 distinct records: 10 were simulated twice.
	if got := dupSims([]int{60, 50}, 100); got != 10 {
		t.Fatalf("dup sims %d, want 10", got)
	}
	if got := dupSims([]int{0}, 0); got != 0 {
		t.Fatalf("warm run dup sims %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median %v", m)
	}
	if median(nil) != 0 {
		t.Fatal("an empty sample must give 0")
	}
}
