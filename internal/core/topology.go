package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TopologyTable shares contact topologies across the replications of one
// sweep. A power-law topology is a pure function of (population, graph
// config, replication seed): it is the only consumer of the seed's
// stream 1, and rng.Source.Stream is pure, so taking it from the table
// instead of drawing it moves no other stream. Every series of a figure
// runs on the same seed set, so a sweep of S series × R seeds over one
// graph config builds R topologies instead of S×R.
//
// Entries are read-only CSRs: nothing writes a CSR after construction
// (mms and virus only read Neighbors), so concurrent replications share
// one pointer. The table holds every topology it built until it is
// dropped, so its footprint is distinct topologies × CSR size; the caller
// scopes it to one sweep. Configs with a GraphBuilder or CSRBuilder are
// opaque functions and always build their own topology.
type TopologyTable struct {
	entries sync.Map // topologyKey -> *topologyEntry
	builds  atomic.Uint64
}

// NewTopologyTable returns an empty table.
func NewTopologyTable() *TopologyTable { return &TopologyTable{} }

// topologyKey addresses one topology. graph.N is the population, as
// buildTopology sets it.
type topologyKey struct {
	graph graph.PowerLawConfig
	seed  uint64
}

// topologyEntry is the rendezvous for one key. ready is closed when the
// building caller finishes; csr stays nil if that build failed (waiters
// then build for themselves).
type topologyEntry struct {
	ready chan struct{}
	csr   *graph.CSR
}

// Builds returns how many topologies the table has built.
func (t *TopologyTable) Builds() uint64 { return t.builds.Load() }

// RunReplication is core.RunReplication with the topology taken from t.
// A nil table builds every topology, exactly as RunReplication does.
func (t *TopologyTable) RunReplication(ctx context.Context, cfg Config, i int, seed uint64) (*Result, *ReplicationError) {
	return runReplication(ctx, cfg, i, seed, t)
}

// topology returns the topology of (cfg, seed): from the table when cfg
// uses the power-law generator, built by the first caller that asks for
// it while concurrent askers wait on that one build. src is the seed's
// stream 1. A failed build is not stored.
func (t *TopologyTable) topology(cfg Config, seed uint64, src *rng.Source) (*graph.CSR, error) {
	if t == nil || cfg.GraphBuilder != nil || cfg.CSRBuilder != nil {
		return buildTopology(cfg, src)
	}
	key := topologyKey{graph: cfg.Graph, seed: seed}
	key.graph.N = cfg.Population
	for {
		fresh := &topologyEntry{ready: make(chan struct{})}
		got, loaded := t.entries.LoadOrStore(key, fresh)
		if !loaded {
			return t.build(key, fresh, cfg, src)
		}
		e := got.(*topologyEntry)
		<-e.ready
		if e.csr != nil {
			return e.csr, nil
		}
		// The building caller failed and released the key; take
		// ownership on the next iteration and build it ourselves.
	}
}

// build runs buildTopology for the caller that owns e. The key is
// released before waiters wake when the build fails or panics, so their
// retry re-owns it instead of re-reading the dead entry.
func (t *TopologyTable) build(key topologyKey, e *topologyEntry, cfg Config, src *rng.Source) (*graph.CSR, error) {
	defer func() {
		if e.csr == nil {
			t.entries.Delete(key)
		}
		close(e.ready)
	}()
	csr, err := buildTopology(cfg, src)
	if err != nil {
		return nil, err
	}
	t.builds.Add(1)
	e.csr = csr
	return csr, nil
}
