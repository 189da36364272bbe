package sharedfs

import (
	"fmt"
	"time"
)

// Transient I/O faults — a full disk that a log rotation clears, an NFS
// server blinking, an object-store 5xx behind a FUSE mount — should
// cost milliseconds, not a crash or a re-computation. RetryPolicy
// bounds a retry loop with a fixed deterministic backoff ladder (no
// jitter, no wall-clock dependence), so retrying changes *when* bytes
// land, never *which* bytes.

// RetryPolicy bounds a retry loop: at most Attempts tries, sleeping
// BaseDelay << attempt between them, capped at MaxDelay.
type RetryPolicy struct {
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetryPolicy is the store policy shared directories run with:
// 5 attempts over ~150ms. Transient blips are absorbed; a genuinely
// broken disk still fails fast enough to be diagnosable.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
}

// Delay is the deterministic backoff before retry attempt (1-based;
// attempt already failed): BaseDelay doubled per attempt, capped.
func (p RetryPolicy) Delay(attempt int) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	return d
}

// Retry runs op up to p.Attempts times (at least once), sleeping the
// ladder's delay between tries. The what label names the operation in
// the exhaustion error.
func (p RetryPolicy) Retry(what string, sleep func(time.Duration), op func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if attempt >= p.Attempts {
			return fmt.Errorf("%s failed after %d attempts: %w", what, attempt, err)
		}
		sleep(p.Delay(attempt))
	}
}
