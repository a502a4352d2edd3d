package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
)

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
// Finalize, the simple-graph invariant every topology keeps.
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

// An empty builder finalizes to a valid empty CSR; a negative node count
// is rejected.
func TestCSREmpty(t *testing.T) {
	t.Parallel()

	if _, err := NewCSRBuilder(-1, 0); err == nil {
		t.Error("negative node count accepted")
	}
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

// HasEdge's binary search must agree with a linear scan of the row on
// present and absent edges.
func TestCSRHasEdge(t *testing.T) {
	t.Parallel()

	c, err := BarabasiAlbertCSR(120, 3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < c.N(); u += 7 {
		for v := 0; v < c.N(); v += 5 {
			if u == v {
				continue
			}
			if want := slices.Contains(c.Neighbors(u), uint32(v)); c.HasEdge(u, v) != want {
				t.Fatalf("HasEdge(%d,%d) = %v, row scan says %v", u, v, c.HasEdge(u, v), want)
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
// generator consumed exactly the recorded draws.
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

// Pin: the exact bytes and RNG consumption of the other generators, at the
// parameters the sensitivity study and mvgraph use. Any change to a draw,
// the order of draws, or an accept/reject test moves a digest or the next
// draw, and with it every figure built on that topology.
func TestGeneratorsPinned(t *testing.T) {
	t.Parallel()

	configModel := DefaultPowerLawConfig()
	configModel.Locality = false
	cases := []struct {
		name  string
		seed  uint64
		build func(src *rng.Source) (*CSR, error)
		sum   string
		next  uint64
	}{
		{"PowerLaw(default)", 1, func(src *rng.Source) (*CSR, error) { return PowerLaw(DefaultPowerLawConfig(), src) },
			"f93c3397f1a368c1a7796270671ab37a90b06f8da9322bb9cc42ab329b055a3e", 0x8dae4a83602f659c},
		{"PowerLaw(default)", 2, func(src *rng.Source) (*CSR, error) { return PowerLaw(DefaultPowerLawConfig(), src) },
			"1fbd1e0174f09eb73d9e0a5031e861214f93e48fff62f59494cf4aed493dd902", 0xe82878c6dd1109a2},
		{"PowerLaw(Locality=false)", 1, func(src *rng.Source) (*CSR, error) { return PowerLaw(configModel, src) },
			"c22c190030761f368e673966f9bfd56383a4b4d52c1b0efbe86ac43d3c4dc31f", 0xa51313006ed6cdfe},
		{"ErdosRenyi(1000, 80/999)", 1, func(src *rng.Source) (*CSR, error) { return ErdosRenyi(1000, 80.0/999, src) },
			"0dd50b0cef39a310872f6f7642a4da2c8840b4818aaa57d361bc40feb4a12e01", 0x2d63d002ec561169},
		{"WattsStrogatz(1000, 80, 0.1)", 1, func(src *rng.Source) (*CSR, error) { return WattsStrogatz(1000, 80, 0.1, src) },
			"c030dee0d1424a16435f7912389da15fe67ba049fd35568bfb075f19ad623d80", 0x7c5ca1f3e26d5a7c},
	}
	for _, tc := range cases {
		src := rng.New(tc.seed)
		c, err := tc.build(src)
		if err != nil {
			t.Fatalf("%s seed %d: %v", tc.name, tc.seed, err)
		}
		sum, next := csrDigest(c), src.Uint64()
		if sum != tc.sum || next != tc.next {
			t.Errorf("%s seed %d: digest %s, next draw %#x; want %s, %#x",
				tc.name, tc.seed, sum, next, tc.sum, tc.next)
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
