package mms

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Population is the struct-of-arrays phone state: one flat slice per field,
// indexed by dense PhoneID, plus the CSR contact topology. Every mutable
// per-phone field the simulator touches in its event loop lives here; the
// layout replaces the former per-phone Phone struct so that a 10^6–10^7
// phone population is a constant number of allocations with no per-phone
// pointers for the GC to trace.
//
// A Population is shared by every shard of a sharded run. Shard s owns the
// contiguous id range of its Network and is the only writer of those
// entries while event windows execute; cross-shard reads happen only at
// exchange barriers on the coordinating goroutine (see ShardSet).
type Population struct {
	topo *graph.CSR

	// state is the infection state, indexed by PhoneID.
	state []State
	// received counts infected messages each phone's user has read: the n
	// in the paper's acceptance probability AF/2^n. int32 (not uint8): the
	// multi-recipient flood can push well past 255 in-flight reads, and a
	// wrapped counter would silently re-raise the acceptance probability.
	received []int32
	// patched reports whether the immunization patch is installed.
	patched []bool
	// infectedAt is the infection time (valid when state is StateInfected).
	infectedAt []time.Duration
	// infector records who infected each phone (NoInfector for seeds),
	// forming the infection tree used for R0 and generation analysis.
	infector []PhoneID
	// userSrc is each phone's private user-behaviour generator, stored by
	// value: deriving a million streams allocates nothing beyond the slice.
	userSrc []rng.Source
}

// NewPopulation builds SoA state for n = len(vulnerable) phones.
// vulnerable[i] marks phone i as susceptible (the paper marks 800 of
// 1,000). src seeds the per-phone user-behaviour streams; the derivation
// names match the former per-phone Stream calls exactly, which is what
// keeps 1,000-phone runs byte-identical across the SoA refactor. Nothing
// here reads the contact topology, so a population can be built while the
// topology is still being generated; NewShardSet attaches it.
func NewPopulation(vulnerable []bool, src *rng.Source) (*Population, error) {
	if src == nil {
		return nil, errors.New("mms: nil rng source")
	}
	n := len(vulnerable)
	p := &Population{
		state:      make([]State, n),
		received:   make([]int32, n),
		patched:    make([]bool, n),
		infectedAt: make([]time.Duration, n),
		infector:   make([]PhoneID, n),
		userSrc:    make([]rng.Source, n),
	}
	for i := 0; i < n; i++ {
		if vulnerable[i] {
			p.state[i] = StateSusceptible
		} else {
			p.state[i] = StateNotVulnerable
		}
		p.infector[i] = NoInfector
		src.StreamInto(&p.userSrc[i], 0x757372<<16|uint64(i)) // "usr" | id
	}
	return p, nil
}

// attach gives the population its contact topology, once.
func (p *Population) attach(topo *graph.CSR) error {
	if topo == nil {
		return errors.New("mms: nil contact topology")
	}
	if p.topo != nil {
		return errors.New("mms: population already has a contact topology")
	}
	if topo.N() != p.N() {
		return fmt.Errorf("mms: topology has %d nodes, population %d phones", topo.N(), p.N())
	}
	p.topo = topo
	return nil
}

// N returns the population size.
func (p *Population) N() int { return len(p.state) }

// valid reports whether id indexes a phone.
func (p *Population) valid(id PhoneID) bool {
	return id >= 0 && int(id) < len(p.state)
}

// vulnerable reports whether the phone can still be infected.
func (p *Population) vulnerable(id PhoneID) bool {
	return p.state[id] == StateSusceptible && !p.patched[id]
}
