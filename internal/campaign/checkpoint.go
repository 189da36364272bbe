package campaign

import (
	"encoding/json"
	"errors"
	"fmt"

	"slamgo/internal/sharedfs"
)

// The checkpoint store persists one file per stage artifact,
// `<name>.ckp`, so a killed campaign restarts from completed cells
// instead of from scratch. An artifact is the stage's JSON payload
// sealed in the sharedfs.Frame (magic "CKPT", version storeVersion),
// which embeds the name and checksums everything. Artifact names embed
// a content hash of everything that determines the artifact's bytes
// (cell spec, derived seed, the relevant exploration options — see
// runner.artifactName), so a changed option simply misses the stale
// file and re-runs the work.
//
// The store is this codec over the sharedfs compute-once Store, whose
// package comment describes the frame, the ladder, the crash-safety
// contract and the worker-lease protocol that lets N cooperating
// processes split a campaign's cells. Unlike the caches, the campaign
// runs the store without the Inline policy: a real I/O fault (permission
// denied, an unreadable path, a full disk after retries) is returned as
// an error, because the work is not lost — the store is unreachable —
// and silently re-simulating over a faulting store would discard it.

// storeVersion is the checkpoint format version. It is hashed into
// every artifact name and sealed into every artifact, so bumping it
// orphans every existing artifact (they are misses, never misread).
const storeVersion = 2

var checkpointFrame = sharedfs.Frame{Magic: "CKPT", Version: storeVersion}

// Store is a directory of versioned campaign stage artifacts.
type Store struct {
	*sharedfs.Store
}

// openStore opens (creating if needed) the checkpoint store over
// cfg.Dir, with the runner's lease, clock and cancellation plumbing in
// cfg, sweeping the debris SIGKILLed processes leave behind (see
// sharedfs.SweepDebris).
func openStore(cfg sharedfs.Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("campaign: empty checkpoint directory")
	}
	cfg.Label, cfg.Ext = "campaign", ".ckp"
	s, err := sharedfs.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint directory: %w", err)
	}
	return &Store{s}, nil
}

// checkpointed resolves a stage artifact. Without a store it just
// computes. With one it loads the artifact a peer or an earlier run
// published, when valid accepts it, and otherwise computes it here and
// publishes it — under the artifact's lease in cooperative worker mode.
// Loading is always safe because the name hashes every input that shapes
// the artifact's bytes. A cancellation request is honoured before any
// computation (and on every poll turn), so a canceled campaign stops at
// cell granularity: in-flight cells finish and checkpoint, waiting ones
// never start.
func checkpointed[T any](r *runner, name string, valid func(T) bool, compute func() (T, error)) (v T, resumed bool, err error) {
	switch {
	case r.canceled():
		return v, false, ErrCanceled
	case r.store == nil:
		v, err = compute()
		return v, false, err
	}
	out, err := r.store.Get(name, func(data []byte) error {
		payload, err := checkpointFrame.OpenKey(name, data)
		if err != nil {
			return err
		}
		var got T
		if err := json.Unmarshal(payload, &got); err != nil {
			return err
		}
		if !valid(got) {
			return errors.New("artifact does not match this stage")
		}
		v = got
		return nil
	}, func() ([]byte, error) {
		var err error
		if v, err = compute(); err != nil {
			return nil, err
		}
		payload, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("campaign: encoding artifact %s: %w", name, err)
		}
		return checkpointFrame.Seal(name, payload), nil
	})
	return v, out == sharedfs.Hit, err
}
