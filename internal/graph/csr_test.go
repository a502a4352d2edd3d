package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
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

// Pin: CSR rows come out strictly ascending whatever order the edges arrive
// in. Edges are fed to the builder in adversarial order — descending,
// larger endpoint first — so every row arrives out of order and goes through
// Finalize's per-row sort.
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

	// Duplicates surface at Finalize, whether the duplicated rows arrive
	// ordered or only sorting brings the copies together.
	for _, tc := range []struct {
		name  string
		edges [][2]int
	}{
		{"reversed orientation", [][2]int{{0, 1}, {1, 0}}},
		{"same orientation in an ordered stream", [][2]int{{0, 1}, {0, 2}, {0, 1}}},
		{"only unordered rows reveal it", [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 0}}},
	} {
		b, err := NewCSRBuilder(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tc.edges {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				t.Fatalf("%s: AddEdge%v: %v", tc.name, e, err)
			}
		}
		if _, err := b.Finalize(); err == nil || !strings.Contains(err.Error(), "duplicate edge") {
			t.Errorf("%s: Finalize error %v, want a duplicate edge", tc.name, err)
		}
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

// csrDigest is a SHA-256 over a CSR's offsets and targets, each uint32
// little-endian, offsets first.
func csrDigest(c *CSR) string {
	h := sha256.New()
	var buf [4]byte
	for _, s := range [][]uint32{c.offsets, c.targets} {
		for _, x := range s {
			binary.LittleEndian.PutUint32(buf[:], x)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Pin: BarabasiAlbertCSR's exact bytes and its RNG consumption. The digest
// covers every offset and target; the next draw after the build shows the
// generator consumed exactly the recorded draws. TestCSRMatchesGraphAdjacency
// cannot catch draw drift, because both of its builders share one stream.
func TestBarabasiAlbertCSRPinned(t *testing.T) {
	t.Parallel()

	cases := []struct {
		n, m int
		seed uint64
		sum  string
		next uint64
	}{
		{100_000, 4, 1, "b7891b6d80d49607c27a29f11ed848d260cf05459200e9acddfde8647f1e4072", 0xbf5d51ab5cffec1},
		{100_000, 4, 2, "b982a36d5d8006979224248710e581c74578c1429f5d443cfea3ebf6f1cde8d3", 0xa63ff0b11c8f96be},
		{1000, 1, 3, "a56e879ddc18e26a9c2af9fc6a7383a72558b46656b59f134a2ccd6d73a3fef6", 0x8859509f5ad6f04},
		{1000, 8, 11, "0a87f9bc8caf01dfb9fa1bc6ecd59e95e53d0688808229598630e5004069b741", 0x4de1791384dfa226},
	}
	for _, tc := range cases {
		src := rng.New(tc.seed)
		c, err := BarabasiAlbertCSR(tc.n, tc.m, src)
		if err != nil {
			t.Fatalf("BarabasiAlbertCSR(%d,%d,%d): %v", tc.n, tc.m, tc.seed, err)
		}
		sum, next := csrDigest(c), src.Uint64()
		if sum != tc.sum || next != tc.next {
			t.Errorf("BarabasiAlbertCSR(%d,%d,%d): digest %s, next draw %#x; want %s, %#x",
				tc.n, tc.m, tc.seed, sum, next, tc.sum, tc.next)
		}
	}
}

// Pin: the order invariant that keeps BarabasiAlbertCSR off Finalize's
// per-row sort. Every node receives its neighbors from the stream strictly
// ascending, in whichever orientation each edge is emitted.
func TestBarabasiAlbertStreamRowOrdered(t *testing.T) {
	t.Parallel()

	cases := []struct {
		n, m int
		seed uint64
	}{
		{5, 4, 1},
		{50, 1, 2},
		{300, 3, 3},
		{2000, 4, 7},
		{2000, 8, 11},
	}
	for _, tc := range cases {
		last := make([]int, tc.n)
		for i := range last {
			last[i] = -1
		}
		edges := 0
		emit := func(u, v int) error {
			for _, e := range [][2]int{{u, v}, {v, u}} {
				if e[1] <= last[e[0]] {
					t.Fatalf("n=%d m=%d seed=%d: node %d receives %d after %d", tc.n, tc.m, tc.seed, e[0], e[1], last[e[0]])
				}
				last[e[0]] = e[1]
			}
			edges++
			return nil
		}
		if err := barabasiAlbertStream(tc.n, tc.m, rng.New(tc.seed), emit); err != nil {
			t.Fatal(err)
		}
		if want := tc.m*(tc.m+1)/2 + (tc.n-tc.m-1)*tc.m; edges != want {
			t.Errorf("n=%d m=%d seed=%d: %d edges, want %d", tc.n, tc.m, tc.seed, edges, want)
		}
	}
}
