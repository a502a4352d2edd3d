// Package workq is the filesystem-backed work queue that turns a sweep
// into distributable units of work. The coordinator enumerates every
// (config fingerprint, seed) replication of a sweep into an append-only,
// fsynced manifest inside the shared store directory; workers — separate
// processes, possibly on separate hosts sharing the filesystem — claim
// units with internal/store's lease protocol (O_CREATE|O_EXCL claim files
// with a TTL and heartbeat renewal), publish results into internal/store,
// and acknowledge completion with an atomic rename.
//
// Crash tolerance is the design center, inherited from internal/store's
// discipline (DESIGN.md §11, §12):
//
//   - The manifest's torn tail after a coordinator crash is detected by
//     per-line CRCs and a footer record; workers refuse an incomplete
//     manifest and wait for the coordinator to rewrite it.
//   - A SIGKILLed worker's claim goes stale (same-host pid probe, TTL
//     backstop cross-host) and is taken over; its in-flight unit is simply
//     recomputed. Results are pure functions of (fingerprint, seed) and
//     publication is atomic and idempotent, so duplicated execution can
//     never produce a wrong or duplicated result.
//   - Acks commit via atomic rename: a unit is either durably acknowledged
//     or still claimable. A crash between publish and ack costs one
//     redundant store read, never a lost unit.
//
// All I/O goes through store.FS, so store.FaultFS failpoints extend to
// queue I/O and tests prove every injected fault degrades to recomputation.
package workq

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"

	"repro/internal/store"
)

// manifestVersion versions the manifest record shape.
const manifestVersion = 1

// crcTable is the Castagnoli polynomial, matching the store's framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

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

// canon is the canonical text the spec CRC covers.
func (s Spec) canon() string {
	return fmt.Sprintf("%s|%d|%016x|%d|%d", s.Figure, s.Reps, s.BaseSeed, s.Scale, s.Grid)
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
	Seed uint64 `json:"-"`
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

func (u Unit) canon() string {
	return fmt.Sprintf("%d|%s|%d|%d|%s|%016x", u.Index, u.Fig, u.Series, u.Rep, u.FP, u.Seed)
}

// Manifest is a loaded manifest: the sweep spec and its unit list.
type Manifest struct {
	Spec  Spec
	Units []Unit
	// Complete reports that the footer record was present and consistent:
	// the manifest was fully written and has no torn tail. Workers must
	// not start on an incomplete manifest — its tail units are missing.
	Complete bool
}

// manifestRecord is the one-line JSON shape shared by the header ("h"),
// unit ("u"), and footer ("f") records. CRC covers the record's canonical
// text, so a truncated or spliced line is detectable even when it still
// parses as JSON.
type manifestRecord struct {
	V    int    `json:"v"`
	T    string `json:"t"`
	Spec *Spec  `json:"spec,omitempty"`
	Unit *Unit  `json:"unit,omitempty"`
	Seed string `json:"seed,omitempty"` // unit seed, fixed-width hex
	N    int    `json:"n,omitempty"`    // footer unit count
	CRC  uint32 `json:"crc"`
}

// WriteManifest writes the complete manifest at path: header, one line per
// unit, footer, then one fsync. The write is append-only on a fresh file;
// a crash mid-write leaves a torn tail that LoadManifest reports as
// incomplete, and the next coordinator rewrites the file from scratch.
func WriteManifest(fsys store.FS, path string, spec Spec, units []Unit) error {
	if fsys == nil {
		fsys = store.OS
	}
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return fmt.Errorf("workq: manifest dir: %w", err)
	}
	if err := fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("workq: reset manifest %s: %w", path, err)
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("workq: create manifest %s: %w", path, err)
	}
	var buf bytes.Buffer
	header := manifestRecord{V: manifestVersion, T: "h", Spec: &spec,
		CRC: crc32.Checksum([]byte(spec.canon()), crcTable)}
	if err := appendRecord(&buf, header); err != nil {
		_ = f.Close()
		return err
	}
	for i := range units {
		u := units[i]
		rec := manifestRecord{V: manifestVersion, T: "u", Unit: &u,
			Seed: fmt.Sprintf("%016x", u.Seed),
			CRC:  crc32.Checksum([]byte(u.canon()), crcTable)}
		if err := appendRecord(&buf, rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	footer := manifestRecord{V: manifestVersion, T: "f", N: len(units),
		CRC: crc32.Checksum([]byte(fmt.Sprintf("footer|%d", len(units))), crcTable)}
	if err := appendRecord(&buf, footer); err != nil {
		_ = f.Close()
		return err
	}
	if n, err := f.Write(buf.Bytes()); err != nil || n < buf.Len() {
		_ = f.Close()
		if err == nil {
			err = fmt.Errorf("short write: %d of %d bytes", n, buf.Len())
		}
		return fmt.Errorf("workq: write manifest %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("workq: fsync manifest %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("workq: close manifest %s: %w", path, err)
	}
	return nil
}

func appendRecord(buf *bytes.Buffer, rec manifestRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	return nil
}

// LoadManifest parses the manifest's valid prefix. A missing file returns
// fs.ErrNotExist. The first malformed line — a torn tail after a
// coordinator crash, or corruption — ends the replay; the manifest is
// Complete only when the footer arrived and its unit count matches.
func LoadManifest(fsys store.FS, path string) (*Manifest, error) {
	if fsys == nil {
		fsys = store.OS
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	sawHeader := false
	for len(data) > 0 {
		line := data
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break // torn final record
		}
		line, data = data[:i], data[i+1:]
		var rec manifestRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.V != manifestVersion {
			break
		}
		switch rec.T {
		case "h":
			if sawHeader || rec.Spec == nil ||
				rec.CRC != crc32.Checksum([]byte(rec.Spec.canon()), crcTable) {
				return m, nil
			}
			m.Spec = *rec.Spec
			sawHeader = true
		case "u":
			if !sawHeader || rec.Unit == nil {
				return m, nil
			}
			u := *rec.Unit
			seed, ok := parseSeed(rec.Seed)
			if !ok {
				return m, nil
			}
			u.Seed = seed
			if rec.CRC != crc32.Checksum([]byte(u.canon()), crcTable) {
				return m, nil
			}
			m.Units = append(m.Units, u)
		case "f":
			if !sawHeader ||
				rec.CRC != crc32.Checksum([]byte(fmt.Sprintf("footer|%d", rec.N)), crcTable) ||
				rec.N != len(m.Units) {
				return m, nil
			}
			m.Complete = true
			return m, nil
		default:
			return m, nil
		}
	}
	return m, nil
}

func parseSeed(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return 0, false
	}
	var seed uint64
	for _, c := range b {
		seed = seed<<8 | uint64(c)
	}
	return seed, true
}
