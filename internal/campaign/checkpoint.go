package campaign

import (
	"encoding/json"
	"errors"
	"fmt"

	"slamgo/internal/sharedfs"
)

// The checkpoint store persists one JSON file per stage artifact,
// `<name>.json`, so a killed campaign restarts from completed cells
// instead of from scratch. Artifact names embed a content hash of
// everything that determines the artifact's bytes (cell spec, derived
// seed, the relevant exploration options — see runner.artifactName), so
// a changed option simply misses the stale file and re-runs the work; a
// version field in the envelope invalidates artifacts across format
// changes the same way.
//
// The store is this envelope codec over the sharedfs compute-once
// Store, whose package comment describes the ladder, the crash-safety
// contract and the worker-lease protocol that lets N cooperating
// processes split a campaign's cells. Unlike the caches, the campaign
// runs the store without the Inline policy: a real I/O fault (permission
// denied, an unreadable path, a full disk after retries) is returned as
// an error, because the work is not lost — the store is unreachable —
// and silently re-simulating over a faulting store would discard it.

// storeVersion is the checkpoint format version; bumping it orphans
// every existing artifact (they are treated as misses, never misread).
const storeVersion = 1

// Store is a directory of versioned campaign stage artifacts.
type Store struct {
	*sharedfs.Store
}

// OpenStore opens (creating if needed) a checkpoint directory, sweeping
// the debris SIGKILLed processes leave behind (see sharedfs.SweepDebris).
func OpenStore(dir string) (*Store, error) {
	return openStore(sharedfs.Config{Dir: dir})
}

// openStore opens the checkpoint store with the runner's lease, clock
// and cancellation plumbing in cfg.
func openStore(cfg sharedfs.Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("campaign: empty checkpoint directory")
	}
	cfg.Label, cfg.Ext = "campaign", ".json"
	s, err := sharedfs.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint directory: %w", err)
	}
	return &Store{s}, nil
}

// envelope wraps every artifact with its format version and its own
// name, so a file copied or renamed to the wrong key cannot be loaded
// as something it is not.
type envelope struct {
	Version int             `json:"version"`
	Name    string          `json:"name"`
	Payload json.RawMessage `json:"payload"`
}

// encodeArtifact wraps payload in name's envelope.
func encodeArtifact(name string, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding artifact %s: %w", name, err)
	}
	return json.Marshal(envelope{Version: storeVersion, Name: name, Payload: raw})
}

// decodeArtifact unwraps name's envelope into out. Every data defect —
// truncated or corrupt JSON, a version or name mismatch — is an error
// the store treats as a miss, because re-running the stage is always
// safe while trusting a damaged artifact never is.
func decodeArtifact(name string, data []byte, out any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	if env.Version != storeVersion || env.Name != name {
		return fmt.Errorf("artifact is %s v%d, want %s v%d", env.Name, env.Version, name, storeVersion)
	}
	return json.Unmarshal(env.Payload, out)
}

// Save atomically persists payload under name, replacing any previous
// artifact of that name.
func (s *Store) Save(name string, payload any) error {
	data, err := encodeArtifact(name, payload)
	if err != nil {
		return err
	}
	return s.Put(name, data)
}

// Load reads the artifact saved under name into out. The boolean
// reports a hit; (false, nil) is a miss (no such file, or a data defect)
// that re-running the stage repairs, while a non-nil error is a real I/O
// fault.
func (s *Store) Load(name string, out any) (bool, error) {
	return s.Store.Load(name, func(data []byte) error { return decodeArtifact(name, data, out) })
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
		var got T
		if err := decodeArtifact(name, data, &got); err != nil {
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
		return encodeArtifact(name, v)
	})
	return v, out == sharedfs.Hit, err
}
