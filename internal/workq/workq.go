// Package workq is the filesystem-backed work queue that turns a sweep
// into distributable units of work. The coordinator enumerates every
// (config fingerprint, seed) replication of a sweep into a write-once
// manifest inside the shared store directory; workers — separate
// processes, possibly on separate hosts sharing the filesystem — claim
// units with internal/store's lease protocol (O_CREATE|O_EXCL claim files
// with a TTL and heartbeat renewal) and publish results into
// internal/store. The store entry is the only record that a unit is done.
//
// Crash tolerance is the design center, inherited from internal/store's
// discipline (DESIGN.md §11, §12):
//
//   - The manifest is one JSON document published with
//     store.WriteFileAtomic: a coordinator crash leaves the previous
//     manifest or none, never a torn one.
//   - A SIGKILLed worker's claim goes stale (same-host pid probe, TTL
//     backstop cross-host) and is taken over; its in-flight unit is simply
//     recomputed. Results are pure functions of (fingerprint, seed) and
//     publication is atomic and idempotent, so duplicated execution can
//     never produce a wrong or duplicated result.
//   - A unit is complete exactly when the store holds its entry, so
//     completion commits with the entry's own atomic rename: there is no
//     second record that a crash could leave behind or ahead of it.
//
// All I/O goes through the store's FS, so store.FaultFS failpoints extend
// to queue I/O and tests prove every injected fault degrades to
// recomputation.
package workq

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/store"
)

// manifestVersion versions the manifest document's shape.
const manifestVersion = 2

// Spec identifies the sweep a manifest belongs to: the CLI-level selector
// plus the options that determine the unit set. Workers rebuild the exact
// study matrix from it, so two binaries disagreeing on any field produce a
// fingerprint mismatch, never a silently different unit.
type Spec struct {
	// Figure is the study selector as the CLIs expose it ("all",
	// "figure1", ... "combined").
	Figure string `json:"figure"`
	// Reps is the replication count per series.
	Reps int `json:"reps"`
	// BaseSeed derives per-replication seeds.
	BaseSeed uint64 `json:"seed"`
	// Scale is the population divisor.
	Scale int `json:"scale"`
	// Grid is the time-grid resolution used at assembly; it does not
	// affect units but is part of the sweep's identity.
	Grid int `json:"grid"`
}

// Unit is one distributable replication: the content address the result
// will be stored under, plus the (figure, series, replication) coordinates
// a worker needs to rebuild the config that hashes to FP.
type Unit struct {
	// Index is the unit's position in the manifest.
	Index int `json:"i"`
	// Fig and Series locate the scenario in the study matrix.
	Fig    string `json:"fig"`
	Series int    `json:"series"`
	// Rep is the replication index (reporting metadata for errors).
	Rep int `json:"rep"`
	// FP is the config fingerprint in full hex.
	FP string `json:"fp"`
	// Seed is the replication seed.
	Seed uint64 `json:"seed"`
}

// ID names the unit on disk, identical to store.Key.String for the same
// (fingerprint, seed).
func (u Unit) ID() string {
	return u.FP + "-" + fmt.Sprintf("%016x", u.Seed)
}

// Key returns the unit's store address.
func (u Unit) Key() (store.Key, error) {
	sum, err := hex.DecodeString(u.FP)
	if err != nil || len(sum) != len(store.Key{}.Sum) {
		return store.Key{}, fmt.Errorf("workq: unit %d has malformed fingerprint %q", u.Index, u.FP)
	}
	var k store.Key
	copy(k.Sum[:], sum)
	k.Seed = u.Seed
	return k, nil
}

// Manifest is the sweep spec and its unit list, stored as one JSON
// document.
type Manifest struct {
	Version int    `json:"version"`
	Spec    Spec   `json:"spec"`
	Units   []Unit `json:"units"`
}

// WriteManifest publishes the manifest for spec and units with one
// atomic write: readers see the previous manifest or this one, never a
// torn mix.
func (q *Queue) WriteManifest(spec Spec, units []Unit) error {
	data, err := json.Marshal(Manifest{Version: manifestVersion, Spec: spec, Units: units})
	if err != nil {
		return fmt.Errorf("workq: encode manifest: %w", err)
	}
	return store.WriteFileAtomic(q.fsys, q.ManifestPath(), append(data, '\n'))
}

// LoadManifest reads the manifest. A missing file returns fs.ErrNotExist;
// anything that is not a whole manifest of this version is an error,
// never a partial unit list.
func (q *Queue) LoadManifest() (*Manifest, error) {
	data, err := q.fsys.ReadFile(q.ManifestPath())
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("workq: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("workq: manifest version %d, this binary speaks %d", m.Version, manifestVersion)
	}
	return &m, nil
}
