package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankIndex is the zero-based nearest-rank index of the p-th percentile
// in a sorted sample of n values.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least minBeyond samples strictly above it, so the reported
// tail rests on enough observations to mean something. It returns the
// percentile, its value and how many samples lie beyond it; ok is false
// when even the median has fewer than minBeyond samples beyond it.
func tailPercentile(xs []float64, minBeyond int) (p, value float64, beyond int, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		if len(s) == 0 {
			break
		}
		i := rankIndex(len(s), p)
		// Samples tied with the percentile value are not beyond it.
		j := sort.Search(len(s), func(k int) bool { return s[k] > s[i] })
		if n := len(s) - j; n >= minBeyond {
			return p, s[i], n, true
		}
	}
	return 0, 0, 0, false
}

// interval is a closed-open time range.
type interval struct{ start, end time.Time }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other (parallel work) and may stick
// out of the parent; only the union of their clipped intervals counts.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.end.Sub(parent.start) - covered(parent, children)
}

// covered is the length of the union of children clipped to parent.
func covered(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start.Before(clipped[b].start) })
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// tally counts attempted and failed operations across a run. Every
// operation that can fail is attempted once: a campaign, each of its
// cells, each evaluation it resolved below the memo, each sequence it
// acquired, and each HTTP request. Quarantined cells, store or cache
// degradations, failed campaigns and non-2xx or transport-failed
// requests count as failures.
type tally struct{ attempted, failed int }

// campaignCounts are the failure-relevant counters of one campaign.
type campaignCounts struct {
	err                  bool // the campaign returned an error or never finished
	cells, cellsFailed   int
	resolved, evalDegr   int // memo misses resolved below the memo; evalstore degradations
	seqAcquired, seqDegr int // sequence acquisitions; seqcache degradations
}

func (t *tally) campaign(c campaignCounts) {
	t.attempted += 1 + c.cells + c.resolved + c.seqAcquired
	t.failed += c.cellsFailed + c.evalDegr + c.seqDegr
	if c.err {
		t.failed++
	}
}

func (t *tally) request(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// errorRate is failed over attempted operations (0 when none ran).
func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// dupSims is how many simulations repeated a configuration some process
// sharing the store had already simulated: the simulations every job
// reported minus the distinct records the store ended up holding.
func dupSims(simulations []int, distinctKeys int) int {
	total := 0
	for _, s := range simulations {
		total += s
	}
	return total - distinctKeys
}
