package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// Key is the content address of one replication result: the config
// fingerprint (experiment.ConfigFingerprint) plus the replication seed
// that drives every random stream of the run. Because a replication is a
// pure function of that pair, a key's value never changes — entries are
// immutable and idempotent to rewrite.
type Key struct {
	Sum  [sha256.Size]byte
	Seed uint64
}

// String renders the key as it appears on disk: full fingerprint hex,
// a dash, and the seed in fixed-width hex.
func (k Key) String() string {
	return hex.EncodeToString(k.Sum[:]) + "-" + fmt.Sprintf("%016x", k.Seed)
}

// Origin reports where GetOrCompute found a result.
type Origin int

const (
	// OriginDisk: decoded from an existing store entry.
	OriginDisk Origin = iota
	// OriginComputed: computed by this caller and published.
	OriginComputed
	// OriginPeer: computed by another process holding the lease; this
	// caller waited and read the published entry.
	OriginPeer
)

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	// DiskHits counts Gets served by decoding a valid entry.
	DiskHits uint64
	// Misses counts Gets that found no entry (including quarantined and
	// version-incompatible ones, which are recomputed).
	Misses uint64
	// Puts counts entries published.
	Puts uint64
	// PeerHits counts results obtained by waiting out another process's
	// lease instead of computing.
	PeerHits uint64
	// Quarantined counts corrupt entries moved aside (or deleted) after
	// failing frame validation.
	Quarantined uint64
	// ReadErrors counts I/O failures on Get (not corruption, not misses).
	ReadErrors uint64
	// WriteErrors counts failed Puts; the result stays usable in memory.
	WriteErrors uint64
	// LeaseWaits counts times GetOrCompute found another process's live
	// lease and waited. LeaseTakeovers counts stale leases broken.
	LeaseWaits, LeaseTakeovers uint64
}

// Store is the persistence interface the replication cache layers on. A
// Get that cannot produce a valid result reports a miss (or an error),
// never a partial or corrupt value — the caller's fallback is always
// recomputation. DiskStore is the implementation; the interface lets a
// caller wrap it (a benchmark's span recorder, for one).
type Store interface {
	// Get returns the stored result for k, or ok=false when the store
	// has no valid entry. err is an I/O failure; corruption is handled
	// internally (quarantine) and surfaces as a plain miss.
	Get(ctx context.Context, k Key) (res *core.Result, ok bool, err error)
	// Put publishes the result for k atomically: after Put returns nil
	// the entry is durable; on error nothing partial is visible.
	Put(ctx context.Context, k Key, res *core.Result) error
	// GetOrCompute returns the stored result or runs compute under a
	// per-key cross-process lease, publishing its result. When another
	// process holds the lease, it waits for that process's entry (or for
	// the lease to go stale) instead of duplicating work.
	GetOrCompute(ctx context.Context, k Key, compute func() (*core.Result, error)) (*core.Result, Origin, error)
	// Stats snapshots the counters.
	Stats() Stats
}

// DiskOptions configures Open beyond the directory.
type DiskOptions struct {
	// FS is the filesystem; nil means the real one. Tests inject a
	// *FaultFS here.
	FS FS
	// Clock, Alive and Hostname configure the lease protocol as in
	// LeaseOptions.
	Clock    clock.Clock
	Alive    func(pid int) bool
	Hostname string
	// LeaseTTL is how old a lease file may grow before any process may
	// break it (default 5m); see Leases.
	LeaseTTL time.Duration
	// LeasePoll is the interval at which a waiter re-checks a held
	// lease (default 25ms).
	LeasePoll time.Duration
}

// DiskStore is the production Store: one file per entry under dir,
// written with temp-file + fsync + rename so a crash at any instant
// leaves either the complete entry or nothing.
//
// Layout under dir:
//
//	objects/<ss>/<fingerprint>-<seed>.mvr   entries (ss = first hex byte)
//	corrupt/                                quarantined invalid entries
//	leases/<fingerprint>-<seed>.lease       cross-process singleflight
//	journal.jsonl                           sweep journal (journal.go)
//
// Temp files live next to their final location (same directory, .tmp-*
// suffix); one orphaned by a crash is inert — nothing ever reads it.
type DiskStore struct {
	dir       string
	fsys      FS
	leases    *Leases
	leasePoll time.Duration

	diskHits    atomic.Uint64
	misses      atomic.Uint64
	puts        atomic.Uint64
	peerHits    atomic.Uint64
	quarantined atomic.Uint64
	readErrors  atomic.Uint64
	writeErrors atomic.Uint64
	leaseWaits  atomic.Uint64
}

var _ Store = (*DiskStore)(nil)

// Open prepares a DiskStore rooted at dir, creating the directory tree as
// needed.
func Open(dir string, opts DiskOptions) (*DiskStore, error) {
	if dir == "" {
		return nil, errors.New("store: empty store directory")
	}
	s := &DiskStore{dir: dir, fsys: opts.FS, leasePoll: opts.LeasePoll}
	if s.fsys == nil {
		s.fsys = OS
	}
	if s.leasePoll <= 0 {
		s.leasePoll = 25 * time.Millisecond
	}
	s.leases = NewLeases(s.fsys, 5*time.Minute, LeaseOptions{
		Clock: opts.Clock, TTL: opts.LeaseTTL, Alive: opts.Alive, Hostname: opts.Hostname,
	})
	for _, sub := range []string{"objects", "corrupt", "leases"} {
		if err := s.fsys.MkdirAll(filepath.Join(dir, sub)); err != nil {
			return nil, fmt.Errorf("store: init %s: %w", dir, err)
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// JournalPath returns the conventional sweep-journal location inside the
// store directory.
func (s *DiskStore) JournalPath() string { return filepath.Join(s.dir, "journal.jsonl") }

// objectPath shards entries by the fingerprint's first byte so no single
// directory accumulates millions of files.
func (s *DiskStore) objectPath(k Key) string {
	name := k.String()
	return filepath.Join(s.dir, "objects", name[:2], name+".mvr")
}

func (s *DiskStore) leasePath(k Key) string {
	return filepath.Join(s.dir, "leases", k.String()+".lease")
}

// Get implements Store. Corruption of any kind — torn frame, checksum
// mismatch, undecodable payload — is quarantined and reported as a miss,
// so a damaged store degrades to recomputation, never to wrong answers.
func (s *DiskStore) Get(ctx context.Context, k Key) (*core.Result, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	path := s.objectPath(k)
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return nil, false, nil
		}
		s.readErrors.Add(1)
		return nil, false, fmt.Errorf("store: read %s: %w", path, err)
	}
	res, err := DecodeResult(data)
	if err != nil {
		s.misses.Add(1)
		if errors.Is(err, ErrCodecVersion) {
			// A healthy entry from another codec revision: recompute
			// and overwrite, no quarantine.
			return nil, false, nil
		}
		s.quarantine(path)
		return nil, false, nil
	}
	s.diskHits.Add(1)
	return res, true, nil
}

// Has reports whether k holds an entry of this codec version. It reads
// only the entry's frame header, so it neither validates the payload nor
// moves a counter nor quarantines anything: a corrupt entry it reports is
// caught by the Get that reads it.
func (s *DiskStore) Has(k Key) bool {
	f, err := s.fsys.Open(s.objectPath(k))
	if err != nil {
		return false
	}
	defer func() { _ = f.Close() }()
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return false
	}
	return string(h[:4]) == codecMagic && h[4] == codecVersion
}

// FS returns the filesystem the store performs its I/O through.
func (s *DiskStore) FS() FS { return s.fsys }

// quarantine moves a corrupt entry into corrupt/ (falling back to
// deletion) so it cannot be re-read every sweep and stays available for
// inspection.
func (s *DiskStore) quarantine(path string) {
	s.quarantined.Add(1)
	dest := filepath.Join(s.dir, "corrupt", filepath.Base(path))
	if err := s.fsys.Rename(path, dest); err != nil {
		// Removal keeps the degraded-to-miss invariant even when the
		// quarantine dir is unusable; if this fails too the entry stays
		// put and every future Get re-detects the corruption.
		_ = s.fsys.Remove(path)
		return
	}
	// Best-effort durability for the move: if the sync (or the rename
	// itself) is lost in a crash, the entry reappears in the cache and is
	// simply re-detected as corrupt on the next Get.
	_ = s.fsys.SyncDir(filepath.Dir(dest))
}

// Put implements Store: encode, write to a temp file, fsync, rename into
// place, fsync the directory. A cancelled context or any I/O failure
// discards the temp file; the destination is never left partial.
func (s *DiskStore) Put(ctx context.Context, k Key, res *core.Result) error {
	data, err := EncodeResult(res)
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	if err := writeFileAtomic(ctx, s.fsys, s.objectPath(k), data); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.puts.Add(1)
	return nil
}

// Stats implements Store.
func (s *DiskStore) Stats() Stats {
	return Stats{
		DiskHits:       s.diskHits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		PeerHits:       s.peerHits.Load(),
		Quarantined:    s.quarantined.Load(),
		ReadErrors:     s.readErrors.Load(),
		WriteErrors:    s.writeErrors.Load(),
		LeaseWaits:     s.leaseWaits.Load(),
		LeaseTakeovers: s.leases.Takeovers(),
	}
}

// GetOrCompute implements Store: disk hit, else compute under the key's
// lease (Leases). A process that loses
// the race waits for the winner's entry to appear, taking over the lease
// if its owner dies (pid probe) or its file goes stale (TTL).
//
// Within one process the replication cache's in-memory singleflight
// already collapses duplicate keys, so this path sees each key at most
// once per process; the lease serializes computation across processes
// sharing the store, the groundwork for distributed sweeps.
func (s *DiskStore) GetOrCompute(ctx context.Context, k Key, compute func() (*core.Result, error)) (*core.Result, Origin, error) {
	if res, ok, err := s.Get(ctx, k); err != nil {
		return nil, OriginComputed, err
	} else if ok {
		return res, OriginDisk, nil
	}
	waited := false
	for {
		acquired, err := s.leases.TryAcquire(s.leasePath(k))
		if err != nil {
			return nil, OriginComputed, err
		}
		if acquired {
			res, err := s.computeHoldingLease(ctx, k, compute, waited)
			if err != nil {
				return nil, OriginComputed, err
			}
			return res, OriginComputed, nil
		}
		// Another process is computing this key: wait for its entry.
		if !waited {
			waited = true
			s.leaseWaits.Add(1)
		}
		select {
		case <-ctx.Done():
			return nil, OriginComputed, ctx.Err()
		case <-time.After(s.leasePoll):
		}
		if res, ok, err := s.Get(ctx, k); err != nil {
			return nil, OriginComputed, err
		} else if ok {
			s.peerHits.Add(1)
			return res, OriginPeer, nil
		}
		// Not published yet: loop — TryAcquire breaks the lease if its
		// owner died, otherwise we keep waiting.
	}
}

// computeHoldingLease runs compute and publishes its result, releasing
// the lease in all cases. A failed Put is counted but not fatal: the
// caller still gets the computed result, the store just stays cold.
func (s *DiskStore) computeHoldingLease(ctx context.Context, k Key, compute func() (*core.Result, error), recheck bool) (*core.Result, error) {
	defer s.leases.Release(s.leasePath(k))
	if recheck {
		// We took over a stale lease; the dead owner may have published
		// between our last poll and the takeover.
		if res, ok, err := s.Get(ctx, k); err != nil {
			return nil, err
		} else if ok {
			return res, nil
		}
	}
	res, err := compute()
	if err != nil {
		return nil, err
	}
	// Put failures are already counted in WriteErrors; the computed
	// result is correct regardless.
	_ = s.Put(ctx, k, res)
	return res, nil
}
