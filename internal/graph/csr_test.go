package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
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

// splitWidths are the range counts the split CSR passes are tested at:
// serial, and every width up to splitMax whatever the host's CPU count.
var splitWidths = []int{1, 2, 3, 4}

// Pin: BarabasiAlbertCSR's exact bytes and its RNG consumption, at every
// split width. The digest covers every offset and target; the next draw
// after the build shows the generator consumed exactly the recorded draws.
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
		for _, k := range splitWidths {
			src := rng.New(tc.seed)
			c, err := barabasiAlbertCSR(tc.n, tc.m, src, k)
			if err != nil {
				t.Fatalf("BarabasiAlbertCSR(%d,%d,%d) at width %d: %v", tc.n, tc.m, tc.seed, k, err)
			}
			sum, next := csrDigest(c), src.Uint64()
			if sum != tc.sum || next != tc.next {
				t.Errorf("BarabasiAlbertCSR(%d,%d,%d) at width %d: digest %s, next draw %#x; want %s, %#x",
					tc.n, tc.m, tc.seed, k, sum, next, tc.sum, tc.next)
			}
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

// referenceBarabasiAlbert is the Barabási–Albert generator written the
// plain way, as the oracle BarabasiAlbertCSR must match byte for byte: an
// explicit repeated-endpoint list, one node at a time, edges streamed
// through a CSRBuilder and Finalize. It also counts the nodes whose first m
// draws hold a duplicate, which send BarabasiAlbertCSR back to the
// rejection loop and restart its batch, and how many of those fall on a
// batch's last node.
func referenceBarabasiAlbert(n, m int, src *rng.Source) (c *CSR, restarts, lastRestarts int, err error) {
	b, err := NewCSRBuilder(n, m*(2*n-m-1)/2)
	if err != nil {
		return nil, 0, 0, err
	}
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := b.AddEdge(u, v); err != nil {
				return nil, 0, 0, err
			}
		}
	}
	var endpoints []int
	for u := 0; u <= m; u++ {
		for i := 0; i < m; i++ {
			endpoints = append(endpoints, u)
		}
	}
	batchStart := m + 1
	for u := m + 1; u < n; u++ {
		var chosen []int
		insert := func(v int) {
			i, found := slices.BinarySearch(chosen, v)
			if !found {
				chosen = slices.Insert(chosen, i, v)
			}
		}
		for i := 0; i < m; i++ {
			insert(endpoints[src.Intn(len(endpoints))])
		}
		last := u == min(batchStart+baBatch, n)-1
		if len(chosen) < m {
			restarts++
			if last {
				lastRestarts++
			}
			batchStart = u + 1
		} else if last {
			batchStart = u + 1
		}
		for guard := m; len(chosen) < m && guard < 100*m; guard++ {
			insert(endpoints[src.Intn(len(endpoints))])
		}
		for _, v := range chosen {
			if err := b.AddEdge(u, v); err != nil {
				return nil, 0, 0, err
			}
			endpoints = append(endpoints, u, v)
		}
	}
	c, err = b.Finalize()
	return c, restarts, lastRestarts, err
}

// BarabasiAlbertCSR must build exactly the reference generator's CSR and
// leave the source where the reference leaves it, at every split width,
// across batch-boundary sizes, the restart path and a restart at a batch's
// last node. The split widths run on graphs with fewer choosers than
// ranges, with one chooser per range (the first boundary next to the
// clique), and on both sides of splitFloor choosers per range.
func TestBarabasiAlbertMatchesReference(t *testing.T) {
	t.Parallel()

	type size struct{ n, m int }
	sizes := []size{{2, 1}, {4, 3}, {9, 8}, {1000, 1}, {1000, 8}, {300, 3}, {100_000, 4}}
	for _, m := range []int{3, 8} {
		for _, k := range []int{baBatch - 1, baBatch, baBatch + 1, 2*baBatch + 1} {
			sizes = append(sizes, size{m + 1 + k, m})
		}
	}
	for _, choosers := range []int{1, 2, 3, 4, 2*splitFloor - 1, 2 * splitFloor} {
		sizes = append(sizes, size{3 + 1 + choosers, 3})
	}
	restarts, lastRestarts := 0, 0
	for _, sz := range sizes {
		for seed := uint64(1); seed <= 4; seed++ {
			ref := rng.New(seed)
			want, r, lr, err := referenceBarabasiAlbert(sz.n, sz.m, ref)
			if err != nil {
				t.Fatalf("reference(%d,%d,%d): %v", sz.n, sz.m, seed, err)
			}
			restarts += r
			lastRestarts += lr
			next := ref.Uint64()
			for _, k := range splitWidths {
				src := rng.New(seed)
				got, err := barabasiAlbertCSR(sz.n, sz.m, src, k)
				if err != nil {
					t.Fatalf("BarabasiAlbertCSR(%d,%d,%d) at width %d: %v", sz.n, sz.m, seed, k, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("BarabasiAlbertCSR(%d,%d,%d) at width %d: %v", sz.n, sz.m, seed, k, err)
				}
				if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.targets, want.targets) {
					t.Errorf("BarabasiAlbertCSR(%d,%d,%d) at width %d differs from the reference", sz.n, sz.m, seed, k)
				}
				if g := src.Uint64(); g != next {
					t.Errorf("BarabasiAlbertCSR(%d,%d,%d) at width %d: next draw %#x, reference %#x", sz.n, sz.m, seed, k, g, next)
				}
			}
		}
	}
	if restarts == 0 || lastRestarts == 0 {
		t.Errorf("grid hit %d restarts, %d at a batch's last node; want at least one of each", restarts, lastRestarts)
	}
	t.Logf("%d restarts, %d at a batch's last node", restarts, lastRestarts)
}

// ascendRows must sort the same rows and name the same duplicate at every
// split width: the one in the lowest row, not the first a parallel range
// happens to find. Rows 3, 6 and 7 hold duplicates; at width 4 each range
// spans two rows, so row 3's range is not the first and rows 6 and 7 are
// checked on another goroutine.
func TestAscendRowsSameVerdictAtEveryWidth(t *testing.T) {
	t.Parallel()

	rows := [][]uint32{
		{1, 2, 4, 7}, {7, 0, 3, 2}, {0, 1, 5, 6}, {9, 5, 9, 5},
		{1, 2, 3, 4}, {8, 6, 4, 2}, {3, 3, 1, 0}, {2, 2, 2, 2},
	}
	build := func(rows [][]uint32) (offsets, targets []uint32) {
		offsets = []uint32{0}
		for _, row := range rows {
			targets = append(targets, row...)
			offsets = append(offsets, uint32(len(targets)))
		}
		return offsets, targets
	}
	const want = "graph: duplicate edge {3,5}"
	for _, k := range splitWidths {
		offsets, targets := build(rows)
		if err := ascendRows(offsets, targets, k); err == nil || err.Error() != want {
			t.Errorf("width %d: %v, want %q", k, err, want)
		}
		clean := slices.Clone(rows)
		clean[3], clean[6], clean[7] = []uint32{9, 5}, []uint32{3, 1, 0}, []uint32{2}
		offsets, targets = build(clean)
		if err := ascendRows(offsets, targets, k); err != nil {
			t.Errorf("width %d, no duplicates: %v", k, err)
		}
		for u := range clean {
			if row := targets[offsets[u]:offsets[u+1]]; !slices.IsSorted(row) {
				t.Errorf("width %d: row %d = %v, not sorted", k, u, row)
			}
		}
	}
}

// splitWidth takes one range per CPU up to splitMax, never below one and
// never with fewer than splitFloor items in a range. It sets GOMAXPROCS
// itself, so it is not a parallel test.
func TestSplitWidth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, splitMax + 1} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct{ items, want int }{
			{0, 1}, {-5, 1}, {splitFloor - 1, 1}, {splitFloor, 1},
			{2*splitFloor - 1, 1}, {2 * splitFloor, min(2, procs)},
			{1_000_000, min(splitMax, procs)},
		} {
			if got := splitWidth(tc.items); got != tc.want {
				t.Errorf("splitWidth(%d) at GOMAXPROCS %d = %d, want %d", tc.items, procs, got, tc.want)
			}
		}
	}
}
