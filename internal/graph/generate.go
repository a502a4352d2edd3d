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
// power-law tail with exponent ~3 and mean degree ~2m. The edge stream
// feeds a CSRBuilder, so no per-node adjacency slices ever materialize.
func BarabasiAlbertCSR(n, m int, src *rng.Source) (*CSR, error) {
	edges := m*(m+1)/2 + (n-m-1)*m
	b, err := NewCSRBuilder(n, edges)
	if err != nil {
		return nil, err
	}
	if err := barabasiAlbertStream(n, m, src, b.AddEdge); err != nil {
		return nil, err
	}
	return b.Finalize()
}

// barabasiAlbertStream is the Barabási–Albert edge stream: it emits the
// seed clique, then each new node's attachments in ascending target order,
// so every row reaches the CSRBuilder already sorted.
func barabasiAlbertStream(n, m int, src *rng.Source, emit func(u, v int) error) error {
	if m < 1 {
		return errors.New("graph: Barabási–Albert needs m >= 1")
	}
	if n < m+1 {
		return fmt.Errorf("graph: Barabási–Albert needs n >= m+1 (n=%d, m=%d)", n, m)
	}
	if src == nil {
		return errors.New("graph: nil rng source")
	}
	// Seed clique.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := emit(u, v); err != nil {
				return err
			}
		}
	}
	// Repeated-endpoint list implements preferential attachment in O(1);
	// every clique node starts with degree m. It holds only nodes before u
	// while u draws, so a draw never picks u itself.
	endpoints := make([]int32, 0, 2*m*n)
	for u := 0; u <= m; u++ {
		for i := 0; i < m; i++ {
			endpoints = append(endpoints, int32(u))
		}
	}
	// chosen is kept as a small sorted slice: membership tests draw the same
	// verdicts a set would, and iterating it yields the ascending attach
	// order directly — no post-hoc sort, and no map iteration order anywhere
	// near the RNG stream. A node's first m draws always happen, so picks
	// loads all their endpoints before any is tested and the loads overlap;
	// the rejection loop then resumes at guard = m, with the same draws in
	// the same order.
	chosen := make([]int32, 0, m)
	picks := make([]int32, m)
	for u := m + 1; u < n; u++ {
		for i := range picks {
			picks[i] = endpoints[src.Intn(len(endpoints))]
		}
		chosen = chosen[:0]
		for _, v := range picks {
			chosen = insertNew(chosen, v)
		}
		for guard := m; len(chosen) < m && guard < 100*m; guard++ {
			chosen = insertNew(chosen, endpoints[src.Intn(len(endpoints))])
		}
		for _, v := range chosen {
			if err := emit(u, int(v)); err != nil {
				return err
			}
			endpoints = append(endpoints, int32(u), v)
		}
	}
	return nil
}

// insertNew inserts v into the ascending slice chosen unless it is already
// present. chosen holds at most m entries, so a linear scan beats a binary
// search.
func insertNew(chosen []int32, v int32) []int32 {
	i := 0
	for i < len(chosen) && chosen[i] < v {
		i++
	}
	if i < len(chosen) && chosen[i] == v {
		return chosen
	}
	chosen = append(chosen, 0)
	copy(chosen[i+1:], chosen[i:])
	chosen[i] = v
	return chosen
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
