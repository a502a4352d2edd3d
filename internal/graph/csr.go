package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// CSR is a compressed-sparse-row adjacency over nodes 0..N-1: node u's
// sorted neighbor list is targets[offsets[u]:offsets[u+1]]. Two flat uint32
// slices hold the entire topology — no per-node slice headers, maps, or
// pointers — so a million-phone contact graph is two allocations and stays
// cache-friendly when the simulator walks contact lists. Rows are strictly
// ascending; CSRBuilder.Finalize sorts only the rows an edge stream delivers
// out of order.
type CSR struct {
	offsets []uint32
	targets []uint32
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the number of undirected edges.
func (c *CSR) M() int { return len(c.targets) / 2 }

// Degree returns the degree of node u.
func (c *CSR) Degree(u int) int {
	return int(c.offsets[u+1] - c.offsets[u])
}

// Neighbors returns node u's sorted neighbor row. The slice aliases the CSR's
// backing array; callers must not modify it.
func (c *CSR) Neighbors(u int) []uint32 {
	return c.targets[c.offsets[u]:c.offsets[u+1]]
}

// HasEdge reports whether the undirected edge {u, v} exists, by binary search
// in u's row.
func (c *CSR) HasEdge(u, v int) bool {
	row := c.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= uint32(v) })
	return i < len(row) && row[i] == uint32(v)
}

// MeanDegree returns the average degree (0 for an empty graph).
func (c *CSR) MeanDegree() float64 {
	if c.N() == 0 {
		return 0
	}
	return float64(len(c.targets)) / float64(c.N())
}

// Bytes returns the memory footprint of the adjacency arrays.
func (c *CSR) Bytes() int {
	return 4 * (len(c.offsets) + len(c.targets))
}

// Validate checks the CSR invariants: monotone offsets, in-range targets,
// strictly ascending rows (sorted, no duplicates, no self-loops), and
// reciprocity. Generators and tests call it; the simulator relies on the
// invariants without re-checking.
func (c *CSR) Validate() error {
	n := c.N()
	if n < 0 || c.offsets[0] != 0 || int(c.offsets[n]) != len(c.targets) {
		return errors.New("graph: CSR offsets do not frame the target array")
	}
	for u := 0; u < n; u++ {
		if c.offsets[u] > c.offsets[u+1] {
			return fmt.Errorf("graph: CSR offsets decrease at node %d", u)
		}
		row := c.Neighbors(u)
		for i, v := range row {
			if int(v) >= n {
				return fmt.Errorf("graph: node %d lists out-of-range neighbor %d", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("graph: node %d has a self-loop", u)
			}
			if i > 0 && row[i-1] >= v {
				return fmt.Errorf("graph: node %d row unsorted or duplicated at %d", u, v)
			}
			if !c.HasEdge(int(v), u) {
				return fmt.Errorf("graph: edge {%d,%d} is not reciprocal", u, v)
			}
		}
	}
	return nil
}

// FromGraph returns c unchanged. It is kept only because the benchmark
// module calls it on PowerLaw's result (perfbench/paper.go:299), and that
// module changes only with the benchmark itself; delete it then.
func FromGraph(c *CSR) *CSR { return c }

// CSRBuilder accumulates a streamed sequence of undirected edges and
// finalizes them into a CSR. The builder holds each edge once as a flat
// (u, v) pair — never a per-node map or adjacency slice — so generating a
// million-node topology peaks at a few flat arrays of edge endpoints.
type CSRBuilder struct {
	n      int
	us, vs []uint32
}

// NewCSRBuilder returns a builder for a graph with n nodes, pre-sizing for
// edgeCap undirected edges (0 is fine; the edge arrays grow as needed).
func NewCSRBuilder(n int, edgeCap int) (*CSRBuilder, error) {
	if n < 0 {
		return nil, errors.New("graph: negative node count")
	}
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d nodes exceed the uint32 id space", n)
	}
	if edgeCap < 0 {
		edgeCap = 0
	}
	return &CSRBuilder{
		n:  n,
		us: make([]uint32, 0, edgeCap),
		vs: make([]uint32, 0, edgeCap),
	}, nil
}

// AddEdge appends the undirected edge {u, v}. Self-loops and out-of-range
// endpoints are rejected immediately; duplicate edges are detected during
// Finalize (streaming callers cannot be membership-checked without
// materializing adjacency, which is exactly what the builder avoids).
func (b *CSRBuilder) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
	}
	b.us = append(b.us, uint32(u))
	b.vs = append(b.vs, uint32(v))
	return nil
}

// Finalize builds the CSR with one scatter: degrees are prefix-summed into
// the offsets, then each edge is written into its two rows in emission
// order. A row that arrives out of order is sorted in place;
// a stream that emits each node's neighbors ascending, as
// barabasiAlbertStream does, never reaches that sort. Duplicate edges surface
// as adjacent equal targets and are rejected.
func (b *CSRBuilder) Finalize() (*CSR, error) {
	n := b.n
	offsets := make([]uint32, n+1)
	for i := range b.us {
		offsets[b.us[i]+1]++
		offsets[b.vs[i]+1]++
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	fill := slices.Clone(offsets[:n])
	targets := make([]uint32, 2*len(b.us))
	for i, u := range b.us {
		v := b.vs[i]
		targets[fill[u]] = v
		fill[u]++
		targets[fill[v]] = u
		fill[v]++
	}

	// Sorted rows make duplicate detection a single adjacency scan.
	for u := 0; u < n; u++ {
		row := targets[offsets[u]:offsets[u+1]]
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", u, row[i])
			}
		}
	}
	return &CSR{offsets: offsets, targets: targets}, nil
}
