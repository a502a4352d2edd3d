package experiment

import (
	"errors"
	"fmt"

	"repro/internal/store"
)

// PersistentSweep bundles the pieces of a disk-backed sweep: the open
// store, its journal, and a replication cache wired to both. It exists so
// the CLIs share one opening and closing discipline for -storedir and
// -resume instead of each re-deriving it.
type PersistentSweep struct {
	// Store is the open result store.
	Store *store.DiskStore
	// Journal is the open sweep journal inside the store directory.
	Journal *store.Journal
	// Cache is a persistent replication cache over Store and Journal,
	// ready to pass to RunSweep.
	Cache *ReplicationCache
	// Resumed is the number of completed units replayed from the journal:
	// zero for a fresh sweep, the prior run's progress under -resume.
	Resumed int
}

// OpenPersistentSweep opens (creating as needed) the result store at dir
// and its sweep journal. With resume true the journal's valid prefix is
// replayed and kept — the resumed run appends to it; with resume false
// the journal restarts empty. The store's objects are reused either way:
// content-addressed results are sound regardless of which run wrote them.
func OpenPersistentSweep(dir string, resume bool) (*PersistentSweep, error) {
	if dir == "" {
		return nil, errors.New("experiment: persistent sweep needs a store directory")
	}
	st, err := store.Open(dir, store.DiskOptions{})
	if err != nil {
		return nil, err
	}
	j, done, err := store.OpenJournal(nil, st.JournalPath(), resume)
	if err != nil {
		return nil, fmt.Errorf("experiment: open sweep journal: %w", err)
	}
	return &PersistentSweep{
		Store:   st,
		Journal: j,
		Cache:   NewPersistentCache(st, j),
		Resumed: len(done),
	}, nil
}

// Close closes the journal. Store entries need no closing — every write
// is already durable when Put returns.
func (ps *PersistentSweep) Close() error {
	return ps.Journal.Close()
}
