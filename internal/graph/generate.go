package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// PowerLawConfig parameterizes the NGCE-style power-law contact-list
// generator. The paper manipulated NGCE's inputs to obtain 1,000 reciprocal
// contact lists with a mean size of 80; PowerLawConfig exposes exactly those
// knobs.
type PowerLawConfig struct {
	// N is the number of phones.
	N int
	// MeanDegree is the target average contact-list size.
	MeanDegree float64
	// Exponent is the power-law exponent of the degree tail (NGCE's
	// gamma); typical social-graph values are 2-3. Smaller values give a
	// heavier tail.
	Exponent float64
	// MinDegree floors every contact list so no phone is isolated.
	MinDegree int
	// MaxDegree caps contact lists; zero means N-1.
	MaxDegree int
	// Locality, when true, embeds the phones on a ring and wires most
	// contacts to nearby phones (friends share friends), rewiring a
	// LongRangeFraction of links to uniformly random phones. This
	// produces the high clustering of real social contact lists; false
	// gives a configuration-model wiring with negligible clustering.
	Locality bool
	// LongRangeFraction is the fraction of links rewired to random
	// targets under Locality (default 0.05 when zero).
	LongRangeFraction float64
}

// DefaultPowerLawConfig returns the paper's population: 1,000 phones with a
// mean contact-list size of 80, wired with social locality (high
// clustering) and a 5% long-range fraction.
func DefaultPowerLawConfig() PowerLawConfig {
	return PowerLawConfig{
		N:                 1000,
		MeanDegree:        80,
		Exponent:          2.5,
		MinDegree:         4,
		Locality:          true,
		LongRangeFraction: 0.05,
	}
}

func (c PowerLawConfig) validate() error {
	switch {
	case c.N < 2:
		return errors.New("graph: power-law generator needs at least 2 nodes")
	case c.MeanDegree <= 0:
		return errors.New("graph: mean degree must be positive")
	case c.MeanDegree >= float64(c.N):
		return fmt.Errorf("graph: mean degree %v infeasible for %d nodes", c.MeanDegree, c.N)
	case c.Exponent <= 1:
		return errors.New("graph: power-law exponent must exceed 1")
	case c.MinDegree < 0:
		return errors.New("graph: negative minimum degree")
	case c.MaxDegree < 0:
		return errors.New("graph: negative maximum degree")
	case c.MaxDegree > 0 && c.MaxDegree < c.MinDegree:
		return errors.New("graph: maximum degree below minimum degree")
	}
	return nil
}

// PowerLaw generates a simple reciprocal graph whose degree sequence follows
// a truncated power law rescaled to the target mean degree, wired with a
// configuration-model pairing that discards self-loops and duplicates, then
// topped up greedily so the realized mean degree lands within a few percent
// of the target. This reproduces the properties the paper needed from NGCE:
// reciprocity, heavy-tailed contact-list sizes, and a controlled mean list
// size.
func PowerLaw(cfg PowerLawConfig, src *rng.Source) (*CSR, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("graph: nil rng source")
	}
	if cfg.Locality {
		return powerLawLocal(cfg, src)
	}
	maxDeg := cfg.MaxDegree
	if maxDeg == 0 || maxDeg > cfg.N-1 {
		maxDeg = cfg.N - 1
	}
	minDeg := cfg.MinDegree
	if minDeg > maxDeg {
		minDeg = maxDeg
	}

	degrees := samplePowerLawDegrees(cfg.N, cfg.MeanDegree, cfg.Exponent, minDeg, maxDeg, src)
	g := newAdjList(cfg.N)

	// Configuration model: build the stub list and pair uniformly.
	stubs := make([]int32, 0)
	for u, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(u))
		}
	}
	if len(stubs)%2 == 1 {
		stubs = append(stubs, stubs[src.Intn(len(stubs))])
	}
	src.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := int(stubs[i]), int(stubs[i+1])
		if u == v || g.hasEdge(u, v) {
			continue // discard; topped up below
		}
		if g.degree(u) >= maxDeg || g.degree(v) >= maxDeg {
			continue
		}
		if err := g.addEdge(u, v); err != nil {
			return nil, err
		}
	}

	// Top up: the discards above bias the mean low; add random edges until
	// the mean degree reaches the target (within the feasibility cap).
	wantEdges := int(math.Round(cfg.MeanDegree * float64(cfg.N) / 2))
	attempts := 0
	maxAttempts := 50 * wantEdges
	for g.m < wantEdges && attempts < maxAttempts {
		attempts++
		u := src.Intn(cfg.N)
		v := src.Intn(cfg.N)
		if u == v || g.hasEdge(u, v) || g.degree(u) >= maxDeg || g.degree(v) >= maxDeg {
			continue
		}
		if err := g.addEdge(u, v); err != nil {
			return nil, err
		}
	}

	// Floor: connect any node below the minimum degree to random partners.
	for u := 0; u < cfg.N; u++ {
		guard := 0
		for g.degree(u) < minDeg && guard < 10*cfg.N {
			guard++
			v := src.Intn(cfg.N)
			if v == u || g.hasEdge(u, v) || g.degree(v) >= maxDeg {
				continue
			}
			if err := g.addEdge(u, v); err != nil {
				return nil, err
			}
		}
	}

	c := g.csr()
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("power-law generator: %w", err)
	}
	return c, nil
}

// powerLawLocal wires a power-law degree sequence with social locality:
// phones sit on a ring and each phone links to its nearest ring neighbors
// with free capacity, except that a LongRangeFraction of links jump to
// uniformly random phones. The result keeps the heavy-tailed contact-list
// sizes while exhibiting the high clustering and multi-hop diameter of real
// social networks — the regime in which the paper's multi-day infection
// curves arise.
func powerLawLocal(cfg PowerLawConfig, src *rng.Source) (*CSR, error) {
	maxDeg := cfg.MaxDegree
	if maxDeg == 0 || maxDeg > cfg.N-1 {
		maxDeg = cfg.N - 1
	}
	minDeg := cfg.MinDegree
	if minDeg > maxDeg {
		minDeg = maxDeg
	}
	longRange := cfg.LongRangeFraction
	if longRange <= 0 {
		longRange = 0.05
	}
	if longRange > 1 {
		longRange = 1
	}

	// Each phone contributes half its target degree as "initiated" links;
	// the other half arrives from neighbors initiating toward it.
	degrees := samplePowerLawDegrees(cfg.N, cfg.MeanDegree, cfg.Exponent, minDeg, maxDeg, src)
	g := newAdjList(cfg.N)
	n := cfg.N
	for u := 0; u < n; u++ {
		initiate := (degrees[u] + 1) / 2
		placed := 0
		// Long-range links first.
		for placed < initiate {
			if !src.Bool(longRange) {
				break
			}
			guard := 0
			for guard < 20 {
				guard++
				v := src.Intn(n)
				if v == u || g.hasEdge(u, v) || g.degree(v) >= maxDeg {
					continue
				}
				if err := g.addEdge(u, v); err != nil {
					return nil, err
				}
				break
			}
			placed++
		}
		// Local links: walk outward along the ring.
		for offset := 1; placed < initiate && offset < n; offset++ {
			v := (u + offset) % n
			if v == u || g.hasEdge(u, v) || g.degree(v) >= maxDeg {
				continue
			}
			if src.Bool(longRange) {
				// Rewire this slot to a random phone.
				guard := 0
				for guard < 20 {
					guard++
					w := src.Intn(n)
					if w == u || g.hasEdge(u, w) || g.degree(w) >= maxDeg {
						continue
					}
					v = w
					break
				}
			}
			if v == u || g.hasEdge(u, v) || g.degree(v) >= maxDeg {
				continue
			}
			if err := g.addEdge(u, v); err != nil {
				return nil, err
			}
			placed++
		}
	}
	// Floor: any phone below the minimum degree gets local partners.
	for u := 0; u < n; u++ {
		for offset := 1; g.degree(u) < minDeg && offset < n; offset++ {
			v := (u + offset) % n
			if v == u || g.hasEdge(u, v) {
				continue
			}
			if err := g.addEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	c := g.csr()
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("power-law local generator: %w", err)
	}
	return c, nil
}

// samplePowerLawDegrees draws a degree sequence proportional to k^-gamma on
// [minDeg.. maxDeg], then rescales it toward the target mean.
func samplePowerLawDegrees(n int, mean, gamma float64, minDeg, maxDeg int, src *rng.Source) []int {
	if minDeg < 1 {
		minDeg = 1
	}
	// Build the truncated zeta distribution.
	weights := make([]float64, maxDeg-minDeg+1)
	total := 0.0
	for k := minDeg; k <= maxDeg; k++ {
		w := math.Pow(float64(k), -gamma)
		weights[k-minDeg] = w
		total += w
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	rawMean := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
		rawMean += float64(minDeg+i) * w / total
	}
	// Scale factor pulling the raw power-law mean up to the requested mean.
	scale := mean / rawMean

	degrees := make([]int, n)
	for u := 0; u < n; u++ {
		x := src.Float64()
		i := sort.SearchFloat64s(cum, x)
		if i >= len(cum) {
			i = len(cum) - 1
		}
		d := int(math.Round(float64(minDeg+i) * scale))
		if d < minDeg {
			d = minDeg
		}
		if d > maxDeg {
			d = maxDeg
		}
		degrees[u] = d
	}
	return degrees
}

// ErdosRenyi generates G(n, p): each of the n(n-1)/2 possible edges is
// present independently with probability p. Nothing is rejected, so the
// edges stream straight into a CSRBuilder, each row in ascending order.
func ErdosRenyi(n int, p float64, src *rng.Source) (*CSR, error) {
	if n < 0 {
		return nil, errors.New("graph: negative node count")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("graph: edge probability %v outside [0,1]", p)
	}
	if src == nil {
		return nil, errors.New("graph: nil rng source")
	}
	b, err := NewCSRBuilder(n, int(p*float64(n)*float64(n-1)/2))
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Bool(p) {
				if err := b.AddEdge(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Finalize()
}

// BarabasiAlbertCSR generates a preferential-attachment graph: starting
// from a clique of m+1 nodes, each new node attaches to m existing nodes
// chosen with probability proportional to degree. The result has a
// power-law tail with exponent ~3 and mean degree ~2m. The generator keeps
// only each new node's m chosen targets and writes the CSR rows from them
// directly, so no edge list or per-node slices ever materialize.
//
// Every new node must attach exactly m targets. A node whose rejection loop
// ends short (100·m draws over at least m+1 distinct nodes) is reported as
// an error rather than attached to fewer; that has never been observed.
func BarabasiAlbertCSR(n, m int, src *rng.Source) (*CSR, error) {
	return barabasiAlbertCSR(n, m, src, splitWidth(n))
}

// barabasiAlbertCSR is BarabasiAlbertCSR writing and checking the rows in
// k parallel ranges (see barabasiAlbertRows and ascendRows). The bytes do
// not depend on k.
func barabasiAlbertCSR(n, m int, src *rng.Source, k int) (*CSR, error) {
	if m < 1 {
		return nil, errors.New("graph: Barabási–Albert needs m >= 1")
	}
	if n < m+1 {
		return nil, fmt.Errorf("graph: Barabási–Albert needs n >= m+1 (n=%d, m=%d)", n, m)
	}
	if src == nil {
		return nil, errors.New("graph: nil rng source")
	}
	// The CSR's uint32 offsets index both directions of all m(2n-m-1)/2
	// edges. Bounding m*n first keeps that product from overflowing.
	if m > math.MaxUint32/n || m*(2*n-m-1) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: Barabási–Albert with n=%d, m=%d has more edges than a CSR indexes", n, m)
	}
	chosen, err := barabasiAlbertChoose(n, m, src)
	if err != nil {
		return nil, err
	}
	c := barabasiAlbertRows(n, m, chosen, k)
	if err := ascendRows(c.offsets, c.targets, k); err != nil {
		return nil, err
	}
	return c, nil
}

// baBatch is how many nodes barabasiAlbertChoose draws ahead of resolving
// them, so the endpoint loads of a whole batch overlap.
const baBatch = 64

// barabasiAlbertChoose draws every new node's m targets, ascending, into
// chosen[(w-m-1)*m:(w-m)*m] for node w > m. BarabasiAlbertCSR validates n,
// m and src.
//
// Preferential attachment samples an index uniformly from a repeated
// endpoint list: m copies of each clique node, then for each new node w its
// m edges as pairs (w, target). That list is never stored. Entry k < m(m+1)
// is the clique node k/m; past the clique, at offset o = k - m(m+1), an even
// o is the new node m+1 + (o/2)/m and an odd o is chosen[o/2]. Only odd
// entries cost a load. The layout holds because every node attaches exactly
// m targets, so node w draws from the first L_w = m(m+1) + 2m(w-m-1)
// entries: earlier nodes only, never w itself.
//
// L_w depends on w alone, so a node's first m draws (which always happen)
// are a fixed function of the generator state and can be taken ahead: a
// batch draws them for up to baBatch nodes on a copy of src, saving the
// state after each node, then loads every index below the batch's first L
// together so the cache misses overlap. Nodes then resolve in order, the
// rest of their indices reading earlier batch nodes' slots, and each
// node's m values are insertion-sorted in place. A duplicate sends src back
// to the state after that node's m draws, where the rejection loop
// continues as the one-node-at-a-time generator would, and the next batch
// starts at the following node; so the draws and their order are exactly
// the one-at-a-time generator's.
func barabasiAlbertChoose(n, m int, src *rng.Source) ([]uint32, error) {
	mu := uint32(m)
	clique := mu * (mu + 1)
	chosen := make([]uint32, (n-m-1)*m)
	idx := make([]uint32, baBatch*m)
	states := make([]rng.Source, baBatch)
batches:
	for w0 := m + 1; w0 < n; {
		end := min(w0+baBatch, n)
		s := *src
		for w := w0; w < end; w++ {
			l := int(clique + 2*mu*uint32(w-m-1))
			for j := (w - w0) * m; j < (w-w0+1)*m; j++ {
				idx[j] = uint32(s.Intn(l))
			}
			states[w-w0] = s
		}
		// Indices below l0 name entries fixed before the batch.
		l0 := clique + 2*mu*uint32(w0-m-1)
		base := (w0 - m - 1) * m
		batch := chosen[base : base+(end-w0)*m]
		for i, k := range idx[:len(batch)] {
			if k < l0 {
				batch[i] = baEndpoint(chosen, mu, k)
			}
		}
		for w := w0; w < end; w++ {
			slot := batch[(w-w0)*m : (w-w0+1)*m]
			have := 0
			for j, k := range idx[(w-w0)*m : (w-w0+1)*m] {
				v := slot[j]
				if k >= l0 {
					v = baEndpoint(chosen, mu, k)
				}
				have = insertSorted(slot, have, v)
			}
			if have == m {
				continue
			}
			*src = states[w-w0]
			l := int(clique + 2*mu*uint32(w-m-1))
			for guard := m; have < m && guard < 100*m; guard++ {
				have = insertSorted(slot, have, baEndpoint(chosen, mu, uint32(src.Intn(l))))
			}
			if have < m {
				return nil, fmt.Errorf("graph: Barabási–Albert node %d found %d of %d distinct targets in %d draws", w, have, m, 100*m)
			}
			w0 = w + 1
			continue batches
		}
		*src = states[end-1-w0]
		w0 = end
	}
	return chosen, nil
}

// baEndpoint resolves index k of the endpoint list barabasiAlbertChoose
// describes.
func baEndpoint(chosen []uint32, m, k uint32) uint32 {
	clique := m * (m + 1)
	if k < clique {
		return k / m
	}
	o := k - clique
	if o&1 != 0 {
		return chosen[o>>1]
	}
	return m + 1 + (o>>1)/m
}

// insertSorted inserts v into the ascending prefix slot[:have] unless it is
// already there, and returns the prefix's new length. slot[have:] may hold
// values not yet inserted; only slot[have] is overwritten. A slot holds m
// entries, so a linear scan beats a binary search.
func insertSorted(slot []uint32, have int, v uint32) int {
	i := have
	for i > 0 && slot[i-1] > v {
		i--
	}
	if i > 0 && slot[i-1] == v {
		return have
	}
	for j := have; j > i; j-- {
		slot[j] = slot[j-1]
	}
	slot[i] = v
	return have + 1
}

// barabasiAlbertRows writes the CSR of the graph barabasiAlbertChoose drew.
// Node u's row is its m own neighbours (the rest of the clique for u <= m,
// else its chosen targets, all below u), then every later node that chose
// it. Scanning the choosers w ascending appends each w to its targets'
// rows in order, so every row comes out ascending with no sort.
//
// The choosers split into k contiguous ranges, and each range appends its
// own choosers through its own cursors. Range r's cursor for row u starts
// at u's start + m + the number of u's choosers in ranges before r, so
// the ranges fill disjoint, consecutive stretches of every row and the
// bytes are the serial pass's for any k. A chooser's own m neighbours
// head its row: every node that chose w comes after w, so when w's range
// reaches it, that range's cursor for row w still sits at w's start + m.
// The last range's cursors are offsets itself, which ends at each row's
// end and shifts back into place; the others are (k-1)·n spare entries.
func barabasiAlbertRows(n, m int, chosen []uint32, k int) *CSR {
	mu := uint32(m)
	b := baSplit{n: n, m: m, k: k, chosen: chosen,
		offsets: make([]uint32, n+1), spare: make([]uint32, (k-1)*n)}
	offsets, spare := b.offsets, b.spare
	// k == 1 calls the range body directly: the closure inParallel takes
	// would reach the heap even when it starts no goroutine.
	if k == 1 {
		baCount(b.counts(0), chosen)
	} else {
		inParallel(k, func(r int) { baCount(b.counts(r), b.own(r)) })
	}
	var start uint32
	for u := 0; u < n; u++ {
		c := start + mu
		for i := u; i < len(spare); i += n {
			spare[i], c = c, c+spare[i]
		}
		start = c + offsets[u+1]
		offsets[u] = c
	}
	targets := make([]uint32, start)
	head := b.cursors(0)
	for u := 0; u <= m; u++ {
		row := targets[head[u]-mu : head[u]]
		for i := range row {
			v := uint32(i)
			if i >= u {
				v++
			}
			row[i] = v
		}
	}
	if k == 1 {
		baFill(targets, offsets[:n], chosen, m, m+1)
	} else {
		inParallel(k, func(r int) { baFill(targets, b.cursors(r), b.own(r), m, b.first(r)) })
	}
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	return &CSR{offsets: offsets, targets: targets}
}

// baSplit is barabasiAlbertRows' split of the choosers m+1..n-1 into k
// contiguous ranges, with the arrays each range counts into and fills
// through.
type baSplit struct {
	n, m, k                int
	chosen, offsets, spare []uint32
}

// first is range r's first chooser; range r is [first(r), first(r+1)).
func (b baSplit) first(r int) int { return b.m + 1 + r*(b.n-b.m-1)/b.k }

// own is the chosen targets of range r's choosers.
func (b baSplit) own(r int) []uint32 {
	return b.chosen[(b.first(r)-b.m-1)*b.m : (b.first(r+1)-b.m-1)*b.m]
}

// cursors is range r's fill cursor per row: offsets itself for the last
// range, else range r's n spare entries.
func (b baSplit) cursors(r int) []uint32 {
	if r == b.k-1 {
		return b.offsets[:b.n]
	}
	return b.spare[r*b.n : (r+1)*b.n]
}

// counts is where range r counts its choosers per row before the prefix
// sum turns the counts into cursors: the last range counts into offsets
// shifted by one, so the sum reads each row's count before overwriting it.
func (b baSplit) counts(r int) []uint32 {
	if r == b.k-1 {
		return b.offsets[1:]
	}
	return b.cursors(r)
}

// baCount adds one to count[v] for every target v in chosen.
func baCount(count, chosen []uint32) {
	for _, v := range chosen {
		count[v]++
	}
}

// baFill writes the rows of the choosers whose targets chosen holds, m per
// chooser from w0 on: each chooser's own targets at the head of its row,
// and the chooser at cursor[v] of each target v's row.
func baFill(targets, cursor, chosen []uint32, m, w0 int) {
	mu := uint32(m)
	for i := 0; i < len(chosen); i += m {
		w := uint32(w0 + i/m)
		own := chosen[i : i+m]
		copy(targets[cursor[w]-mu:], own)
		for _, v := range own {
			targets[cursor[v]] = w
			cursor[v]++
		}
	}
}

// WattsStrogatz generates a small-world ring lattice of n nodes, each linked
// to its k nearest neighbors (k even), with each edge rewired with
// probability beta.
func WattsStrogatz(n, k int, beta float64, src *rng.Source) (*CSR, error) {
	if n <= 0 {
		return nil, errors.New("graph: Watts–Strogatz needs n > 0")
	}
	if k <= 0 || k%2 != 0 || k >= n {
		return nil, fmt.Errorf("graph: Watts–Strogatz needs even 0 < k < n (n=%d, k=%d)", n, k)
	}
	if beta < 0 || beta > 1 || math.IsNaN(beta) {
		return nil, fmt.Errorf("graph: rewiring probability %v outside [0,1]", beta)
	}
	if src == nil {
		return nil, errors.New("graph: nil rng source")
	}
	g := newAdjList(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			target := v
			if src.Bool(beta) {
				// Rewire to a uniformly random non-duplicate target.
				guard := 0
				for guard < 10*n {
					guard++
					w := src.Intn(n)
					if w != u && !g.hasEdge(u, w) {
						target = w
						break
					}
				}
			}
			if target == u || g.hasEdge(u, target) {
				continue
			}
			if err := g.addEdge(u, target); err != nil {
				return nil, err
			}
		}
	}
	return g.csr(), nil
}
