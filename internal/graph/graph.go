// Package graph provides the undirected contact-list topology used by the
// virus model, together with generators that substitute for the NGCE package
// ("Network Graphs for Computer Epidemiologists") the paper used: a
// power-law configuration model with reciprocal contact lists, plus
// Barabási–Albert, Erdős–Rényi, and Watts–Strogatz generators for
// topology-sensitivity studies, degree/clustering/component metrics, and an
// NGCE-style contact-list file format. Every topology is a CSR.
package graph

import (
	"fmt"
	"sort"
)

// adjList is a generator's scratch adjacency: one sorted row per node, so
// the accept/reject tests a generator makes while wiring (hasEdge, degree)
// see every edge placed so far, plus an edge count. A generator finalizes
// it into a CSR once, with csr.
type adjList struct {
	rows [][]int32
	m    int
}

// newAdjList returns an empty adjacency over n nodes; n must be
// non-negative.
func newAdjList(n int) *adjList {
	return &adjList{rows: make([][]int32, n)}
}

// degree returns the degree of node u.
func (a *adjList) degree(u int) int { return len(a.rows[u]) }

// hasEdge reports whether the undirected edge {u, v} exists.
func (a *adjList) hasEdge(u, v int) bool {
	row := a.rows[u]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	return i < len(row) && row[i] == int32(v)
}

// addEdge inserts the undirected edge {u, v}. Self-loops, out-of-range
// endpoints and duplicate edges are rejected with an error, preserving the
// simple-graph invariant.
func (a *adjList) addEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if u < 0 || v < 0 || u >= len(a.rows) || v >= len(a.rows) {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, len(a.rows))
	}
	if a.hasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	a.insert(u, int32(v))
	a.insert(v, int32(u))
	a.m++
	return nil
}

func (a *adjList) insert(u int, v int32) {
	row := a.rows[u]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = v
	a.rows[u] = row
}

// csr copies the adjacency into CSR form. Rows are already sorted, so they
// copy over verbatim.
func (a *adjList) csr() *CSR {
	n := len(a.rows)
	offsets := make([]uint32, n+1)
	for u, row := range a.rows {
		offsets[u+1] = offsets[u] + uint32(len(row))
	}
	targets := make([]uint32, offsets[n])
	for u, row := range a.rows {
		out := targets[offsets[u]:offsets[u+1]]
		for i, v := range row {
			out[i] = uint32(v)
		}
	}
	return &CSR{offsets: offsets, targets: targets}
}
