package sharedfs

import (
	"fmt"
	"os"
	"sync"
	"syscall"
)

// Fault injection for the crash-safety suites of every store built on
// Store: faults fire on a deterministic schedule keyed by operation
// index, and faults that damage data damage the real files on disk — the
// store's own defect handling (miss on corrupt, atomic replace on
// rewrite, the failure policy on a dead disk) is what is under test, not
// a simulation of it.

// FaultKind selects what an injected fault does.
type FaultKind int

const (
	// FaultWriteError fails the save with ENOSPC before anything is
	// written — the classic full disk.
	FaultWriteError FaultKind = iota
	// FaultShortWrite lets the save publish, then truncates the
	// published artifact to half its bytes and reports ENOSPC — a torn
	// write on a filesystem without atomic-rename guarantees (or a crash
	// straddling the flush). Later loads must see the damage as a miss.
	FaultShortWrite
	// FaultCorruptRead flips bytes of the on-disk artifact before the
	// read — bit rot / a half-synced page. The load must see the damaged
	// artifact as a miss.
	FaultCorruptRead
	// FaultReadError fails the load with EIO without touching the file.
	FaultReadError
)

// FaultPlan schedules faults by zero-based operation index. Every save
// attempt counts one save op and every load attempt one load op —
// retried attempts advance the counters too, so a transient fault is
// one that schedules no fault at the retried index. With concurrent
// callers the op order depends on scheduling, so deterministic tests
// drive the store single-threaded.
type FaultPlan struct {
	Save map[int]FaultKind
	Load map[int]FaultKind
}

// faultInjector applies a plan to a store's save and load attempts.
type faultInjector struct {
	mu       sync.Mutex
	plan     FaultPlan
	saveOps  int
	loadOps  int
	injected int
}

func (f *faultInjector) arm(plan FaultPlan) {
	f.mu.Lock()
	f.plan = plan
	f.mu.Unlock()
}

func (f *faultInjector) fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// next consumes one op of the save or the load schedule.
func (f *faultInjector) next(save bool) (FaultKind, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sched, ops := f.plan.Load, &f.loadOps
	if save {
		sched, ops = f.plan.Save, &f.saveOps
	}
	k, ok := sched[*ops]
	*ops++
	if ok {
		f.injected++
	}
	return k, ok
}

// save runs one save attempt of the artifact at path through the plan.
func (f *faultInjector) save(path string, write func() error) error {
	kind, ok := f.next(true)
	switch {
	case !ok:
		return write()
	case kind == FaultShortWrite:
		// Let the real write land, then tear the published file: the
		// bytes that survive a short write are a prefix.
		if err := write(); err != nil {
			return err
		}
		if info, err := os.Stat(path); err == nil {
			os.Truncate(path, info.Size()/2)
		}
		return fmt.Errorf("sharedfs: fault injection: short write of %s: %w", path, syscall.ENOSPC)
	default: // FaultWriteError
		return fmt.Errorf("sharedfs: fault injection: writing %s: %w", path, syscall.ENOSPC)
	}
}

// load runs the plan for one load attempt of path. A corrupt-read fault
// damages the real file in place and lets the real load proceed (nil);
// a read-error fault fails the attempt with EIO.
func (f *faultInjector) load(path string) error {
	kind, ok := f.next(false)
	switch {
	case !ok:
		return nil
	case kind == FaultCorruptRead:
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			for i := range data {
				data[i] ^= 0x5a
			}
			os.WriteFile(path, data, 0o644)
		}
		return nil
	default: // FaultReadError
		return fmt.Errorf("sharedfs: fault injection: reading %s: %w", path, syscall.EIO)
	}
}
