package graph

import (
	"testing"

	"repro/internal/rng"
)

// assertCSRMatchesGraph checks that the CSR and the Graph describe the same
// topology: same node count, same degree sequence, and the same sorted
// neighbor list for every node.
func assertCSRMatchesGraph(t *testing.T, c *CSR, g *Graph) {
	t.Helper()
	if c.N() != g.N() {
		t.Fatalf("CSR has %d nodes, Graph has %d", c.N(), g.N())
	}
	if c.M() != g.M() {
		t.Fatalf("CSR has %d edges, Graph has %d", c.M(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("node %d: CSR degree %d, Graph degree %d", u, c.Degree(u), g.Degree(u))
		}
		row := c.Neighbors(u)
		want := g.Neighbors(u)
		for i := range want {
			if row[i] != uint32(want[i]) {
				t.Fatalf("node %d neighbor %d: CSR %d, Graph %d", u, i, row[i], want[i])
			}
		}
	}
}

// Property (satellite): CSR construction from the streamed Barabási–Albert
// edge sequence matches the old slice-per-node adjacency — same sorted
// neighbor lists, same degree sequence — across sizes, densities, and seeds.
// Both builders consume the identical RNG stream, so any divergence is a
// construction bug, not sampling noise.
func TestCSRMatchesGraphAdjacency(t *testing.T) {
	t.Parallel()

	cases := []struct {
		n, m int
		seed uint64
	}{
		{10, 2, 1},
		{50, 3, 2},
		{300, 4, 5},
		{1000, 3, 7},
		{1000, 8, 11},
	}
	for _, tc := range cases {
		g, err := BarabasiAlbert(tc.n, tc.m, rng.New(tc.seed))
		if err != nil {
			t.Fatalf("BarabasiAlbert(%d,%d,%d): %v", tc.n, tc.m, tc.seed, err)
		}
		c, err := BarabasiAlbertCSR(tc.n, tc.m, rng.New(tc.seed))
		if err != nil {
			t.Fatalf("BarabasiAlbertCSR(%d,%d,%d): %v", tc.n, tc.m, tc.seed, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("CSR invalid (n=%d m=%d seed=%d): %v", tc.n, tc.m, tc.seed, err)
		}
		assertCSRMatchesGraph(t, c, g)
	}
}

// FromGraph must preserve the adjacency of arbitrary generated graphs,
// including the paper's power-law topology.
func TestFromGraphPreservesAdjacency(t *testing.T) {
	t.Parallel()

	g, err := PowerLaw(DefaultPowerLawConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	c := FromGraph(g)
	if err := c.Validate(); err != nil {
		t.Fatalf("FromGraph CSR invalid: %v", err)
	}
	assertCSRMatchesGraph(t, c, g)
}

// Pin (satellite fix): CSR rows are sorted by construction. Edges are fed to
// the builder in adversarial order — descending, interleaved, shuffled — and
// the finalized rows must come out strictly ascending with no sorting step
// ever having touched them.
func TestCSRRowsSortedByConstruction(t *testing.T) {
	t.Parallel()

	const n = 200
	// Deterministically shuffled complete-ish edge list: take every edge
	// {u,v} with (u+v)%3 != 0 and feed them in reverse lexicographic order.
	b, err := NewCSRBuilder(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := n - 1; u >= 0; u-- {
		for v := n - 1; v > u; v-- {
			if (u+v)%3 == 0 {
				continue
			}
			if err := b.AddEdge(v, u); err != nil { // larger endpoint first
				t.Fatal(err)
			}
		}
	}
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		row := c.Neighbors(u)
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				t.Fatalf("node %d row not strictly ascending at %d: %v >= %v", u, i, row[i-1], row[i])
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The builder must reject self-loops immediately and duplicate edges at
// Finalize, matching Graph.AddEdge's simple-graph invariant.
func TestCSRBuilderRejectsInvalidEdges(t *testing.T) {
	t.Parallel()

	b, err := NewCSRBuilder(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(0, 4); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 2); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err) // duplicate in reversed orientation: caught at Finalize
	}
	if _, err := b.Finalize(); err == nil {
		t.Error("duplicate edge survived Finalize")
	}
}

// An empty builder finalizes to a valid empty CSR.
func TestCSREmpty(t *testing.T) {
	t.Parallel()

	b, err := NewCSRBuilder(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 || c.M() != 0 {
		t.Errorf("empty CSR: N=%d M=%d", c.N(), c.M())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

// HasEdge must agree with the Graph implementation on present and absent
// edges.
func TestCSRHasEdge(t *testing.T) {
	t.Parallel()

	g, err := BarabasiAlbert(120, 3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	c := FromGraph(g)
	for u := 0; u < g.N(); u += 7 {
		for v := 0; v < g.N(); v += 5 {
			if u == v {
				continue
			}
			if c.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("HasEdge(%d,%d): CSR %v, Graph %v", u, v, c.HasEdge(u, v), g.HasEdge(u, v))
			}
		}
	}
}
