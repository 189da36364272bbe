package sharedfs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The worker-lease protocol turns a shared directory into a
// coordination substrate: N cooperating processes (or machines over a
// shared filesystem) split a set of named work items, and any of them
// can die at any instant without losing the overall job.
//
// A worker claims an item by atomically creating `<name>.lease` with
// its content in place — the record is written to a temp file and
// hard-linked to the lease name, which fails if the name exists — so no
// peer can ever read a half-created lease. The record carries the
// worker id and a heartbeat timestamp.
// While the item runs the holder renews the heartbeat; a lease whose
// heartbeat is older than the TTL is expired and may be taken over by
// any other worker. On completion the holder publishes the result
// (atomic rename) and releases the lease.
//
// Leases are a work-distribution optimisation, not a correctness
// mechanism. Correctness rests entirely on the published artifacts:
// names are content hashes of everything that determines their bytes,
// every writer of a name produces identical bytes, and writes are
// atomic — so if a takeover races a slow-but-alive holder, both compute
// the item, both write, the last complete rename wins, and the result
// is indistinguishable from either writer finishing alone. The lease
// protocol therefore tolerates benign races (two workers both believing
// they hold an expired lease) instead of paying for distributed
// consensus the problem does not need.
//
// Liveness: a worker that wants an item either holds the lease (and
// computes), sees the artifact appear (another worker finished), or
// watches the lease's heartbeat go stale (the holder died) and takes
// over. Heartbeat timestamps are wall-clock but exist only in .lease
// files, never in artifacts or reports — determinism is untouched.

// ErrLeaseLost reports that a renew found the lease held by another
// worker: an expired lease was taken over. The holder keeps computing —
// the write is still safe — but learns its effort may be duplicated.
var ErrLeaseLost = errors.New("sharedfs: lease lost to another worker")

// leaseRecord is the JSON body of a .lease file.
type leaseRecord struct {
	// Worker identifies the holder.
	Worker string `json:"worker"`
	// HeartbeatNS is the holder's last renewal, Unix nanoseconds.
	HeartbeatNS int64 `json:"heartbeat_ns"`
}

// LeaseManager claims, renews and releases item leases in a shared
// directory on behalf of one worker.
type LeaseManager struct {
	dir    string
	worker string
	ttl    time.Duration
	now    func() time.Time
}

// NewLeaseManager creates a manager for worker over the shared
// directory dir. A lease is expired once its heartbeat is older than
// ttl; now nil means time.Now (tests inject clocks to simulate dead
// workers).
func NewLeaseManager(dir, worker string, ttl time.Duration, now func() time.Time) *LeaseManager {
	if now == nil {
		now = time.Now
	}
	return &LeaseManager{dir: dir, worker: worker, ttl: ttl, now: now}
}

// Lease is a held claim on one item name.
type Lease struct {
	m    *LeaseManager
	name string
	path string
}

// Name returns the item name the lease claims (for log messages).
func (l *Lease) Name() string { return l.name }

func (m *LeaseManager) leasePath(name string) string {
	return filepath.Join(m.dir, name+".lease")
}

// record marshals a fresh heartbeat for this worker.
func (m *LeaseManager) record() []byte {
	data, _ := json.Marshal(leaseRecord{Worker: m.worker, HeartbeatNS: m.now().UnixNano()})
	return data
}

// read parses a lease file; ok is false when the file is absent.
// Unparsable lease bytes decode to a zero record, whose ancient
// heartbeat makes the lease immediately expired — a corrupt lease must
// never wedge an item.
func (m *LeaseManager) read(name string) (rec leaseRecord, ok bool) {
	data, err := os.ReadFile(m.leasePath(name))
	if err != nil {
		return leaseRecord{}, false
	}
	json.Unmarshal(data, &rec)
	return rec, true
}

// expired reports whether a heartbeat is older than the TTL.
func (m *LeaseManager) expired(rec leaseRecord) bool {
	return m.now().Sub(time.Unix(0, rec.HeartbeatNS)) > m.ttl
}

// testHookLeaseCreated, when set by a test, runs right after a
// TryAcquire made name's lease file visible — the instant a peer may
// read it.
var testHookLeaseCreated func(name string)

// TryAcquire attempts to claim name. It returns (lease, true) when this
// worker now holds the claim — either by creating the lease file
// atomically or by taking over an expired one — and (nil, false) when a
// live worker holds it. Errors are real I/O faults.
func (m *LeaseManager) TryAcquire(name string) (*Lease, bool, error) {
	path := m.leasePath(name)
	tmp, err := m.writeRecord()
	if err != nil {
		return nil, false, fmt.Errorf("sharedfs: lease %s: %w", name, err)
	}
	defer os.Remove(tmp) // after a link or a failed rename; gone after a takeover
	err = os.Link(tmp, path)
	if err == nil {
		if testHookLeaseCreated != nil {
			testHookLeaseCreated(name)
		}
		return &Lease{m: m, name: name, path: path}, true, nil
	}
	if !errors.Is(err, os.ErrExist) {
		return nil, false, fmt.Errorf("sharedfs: lease %s: %w", name, err)
	}
	rec, ok := m.read(name)
	if !ok || !m.expired(rec) {
		// Live holder — or it released between our link and our read; let
		// the caller's poll loop retry (its artifact is probably about to
		// appear).
		return nil, false, nil
	}
	// Expired: take over by atomically replacing the lease file. Two
	// workers racing this rename both think they won — that is a benign
	// race (see the protocol comment): both compute, identical bytes,
	// last complete artifact rename wins.
	if err := os.Rename(tmp, path); err != nil {
		return nil, false, fmt.Errorf("sharedfs: lease %s: %w", name, err)
	}
	return &Lease{m: m, name: name, path: path}, true, nil
}

// writeRecord writes a fresh heartbeat record for this worker to a new
// temp file in the lease directory and returns its path.
func (m *LeaseManager) writeRecord() (string, error) {
	f, err := os.CreateTemp(m.dir, ".tmp-lease-*")
	if err != nil {
		return "", err
	}
	_, err = f.Write(m.record())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// Renew refreshes the heartbeat. It returns ErrLeaseLost when the lease
// file now names another worker (an expired lease was taken over) or
// vanished; the holder should keep computing — artifact writes stay
// safe — but stop renewing.
func (l *Lease) Renew() error {
	rec, ok := l.m.read(l.name)
	if !ok || rec.Worker != l.m.worker {
		return ErrLeaseLost
	}
	tmp, err := l.m.writeRecord()
	if err == nil {
		if err = os.Rename(tmp, l.path); err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		return fmt.Errorf("sharedfs: lease %s: %w", l.name, err)
	}
	return nil
}

// Release drops the claim after the artifact is saved. Only a lease
// still held by this worker is removed; a lease lost to takeover is
// left to its new holder.
func (l *Lease) Release() error {
	rec, ok := l.m.read(l.name)
	if !ok || rec.Worker != l.m.worker {
		return nil
	}
	if err := os.Remove(l.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("sharedfs: lease %s: %w", l.name, err)
	}
	return nil
}

// Holder reports the worker currently named in name's lease file, with
// ok false when no lease exists. Diagnostic / test surface.
func (m *LeaseManager) Holder(name string) (worker string, expired, ok bool) {
	rec, ok := m.read(name)
	if !ok {
		return "", false, false
	}
	return rec.Worker, m.expired(rec), true
}

// heartbeat renews lease until the returned stop function is called,
// then releases it. Renewal runs at a third of the TTL so one missed
// beat (GC pause, NFS hiccup) does not forfeit the lease; logf receives
// renewal failures.
func heartbeat(lease *Lease, ttl time.Duration, logf func(format string, args ...any)) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(max(ttl/3, time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if err := lease.Renew(); err != nil {
					logf("lease %s: %v (continuing; artifact writes stay safe)", lease.name, err)
					if errors.Is(err, ErrLeaseLost) {
						return
					}
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		if err := lease.Release(); err != nil {
			logf("lease %s: release: %v", lease.name, err)
		}
	}
}
