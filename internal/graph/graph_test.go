package graph

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// csrOf builds the CSR over n nodes with the given edges.
func csrOf(t *testing.T, n int, edges [][2]int) *CSR {
	t.Helper()
	b, err := NewCSRBuilder(n, len(edges))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The generators' scratch adjacency keeps rows reciprocal and counts edges
// as it goes; its CSR satisfies every invariant.
func TestAddEdgeAndInvariants(t *testing.T) {
	t.Parallel()

	a := newAdjList(4)
	edges := [][2]int{{0, 1}, {1, 2}, {0, 3}, {2, 3}}
	for _, e := range edges {
		if err := a.addEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if a.m != 4 {
		t.Errorf("m = %d, want 4", a.m)
	}
	if !a.hasEdge(1, 0) || !a.hasEdge(3, 2) {
		t.Error("edges not reciprocal via hasEdge")
	}
	if a.hasEdge(1, 3) {
		t.Error("phantom edge reported")
	}
	c := a.csr()
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if c.M() != 4 {
		t.Errorf("CSR M = %d, want 4", c.M())
	}
}

func TestAddEdgeRejections(t *testing.T) {
	t.Parallel()

	a := newAdjList(3)
	if err := a.addEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := a.addEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := a.addEdge(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if err := a.addEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.addEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
	if a.m != 1 {
		t.Errorf("m = %d after rejections, want 1", a.m)
	}
}

func TestDegreesAndMeanDegree(t *testing.T) {
	t.Parallel()

	g := csrOf(t, 4, [][2]int{{0, 1}, {0, 2}})
	want := []int{2, 1, 1, 0}
	for u := range want {
		if d := g.Degree(u); d != want[u] {
			t.Errorf("degree[%d] = %d, want %d", u, d, want[u])
		}
	}
	if g.MeanDegree() != 1 {
		t.Errorf("MeanDegree = %v, want 1", g.MeanDegree())
	}
	if empty := csrOf(t, 0, nil); empty.MeanDegree() != 0 {
		t.Error("empty graph mean degree not 0")
	}
}

func TestComponents(t *testing.T) {
	t.Parallel()

	// Component {0,1,2}, component {3,4}, isolated {5}.
	g := csrOf(t, 6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes %d,%d,%d, want 3,2,1",
			len(comps[0]), len(comps[1]), len(comps[2]))
	}
	if got := g.GiantComponentFraction(); got != 0.5 {
		t.Errorf("GiantComponentFraction = %v, want 0.5", got)
	}
}

func TestPowerLawGenerator(t *testing.T) {
	t.Parallel()

	cfg := DefaultPowerLawConfig()
	cfg.N = 500
	cfg.MeanDegree = 40
	g, err := PowerLaw(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
	mean := g.MeanDegree()
	if mean < 34 || mean > 46 {
		t.Errorf("mean degree %v, want ~40 +-15%%", mean)
	}
	st := g.ComputeDegreeStats()
	if st.Min < cfg.MinDegree {
		t.Errorf("min degree %d below floor %d", st.Min, cfg.MinDegree)
	}
	// Heavy tail: max degree should be well above the mean.
	if float64(st.Max) < 1.5*mean {
		t.Errorf("max degree %d not heavy-tailed relative to mean %v", st.Max, mean)
	}
	// Contact graph must be usable for epidemics: mostly one component.
	if frac := g.GiantComponentFraction(); frac < 0.99 {
		t.Errorf("giant component fraction %v, want >= 0.99", frac)
	}
}

func TestPowerLawPaperPopulation(t *testing.T) {
	t.Parallel()

	g, err := PowerLaw(DefaultPowerLawConfig(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1000 {
		t.Fatalf("N = %d, want 1000", g.N())
	}
	mean := g.MeanDegree()
	if mean < 72 || mean > 88 {
		t.Errorf("mean contact-list size %v, want ~80 (paper)", mean)
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	t.Parallel()

	cfg := DefaultPowerLawConfig()
	cfg.N = 200
	cfg.MeanDegree = 20
	a, err := PowerLaw(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PowerLaw(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", a.M(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		an, bn := a.Neighbors(u), b.Neighbors(u)
		if len(an) != len(bn) {
			t.Fatalf("node %d adjacency differs", u)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("node %d adjacency differs at %d", u, i)
			}
		}
	}
}

func TestPowerLawValidation(t *testing.T) {
	t.Parallel()

	src := rng.New(1)
	bad := []PowerLawConfig{
		{N: 1, MeanDegree: 1, Exponent: 2},
		{N: 10, MeanDegree: 0, Exponent: 2},
		{N: 10, MeanDegree: 10, Exponent: 2},
		{N: 10, MeanDegree: 3, Exponent: 1},
		{N: 10, MeanDegree: 3, Exponent: 2, MinDegree: -1},
		{N: 10, MeanDegree: 3, Exponent: 2, MaxDegree: -2},
		{N: 10, MeanDegree: 3, Exponent: 2, MinDegree: 5, MaxDegree: 4},
	}
	for i, cfg := range bad {
		if _, err := PowerLaw(cfg, src); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := PowerLaw(DefaultPowerLawConfig(), nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestErdosRenyi(t *testing.T) {
	t.Parallel()

	g, err := ErdosRenyi(200, 0.1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected edges = C(200,2)*0.1 = 1990.
	if m := g.M(); m < 1700 || m > 2300 {
		t.Errorf("edge count %d, want ~1990", m)
	}
	if _, err := ErdosRenyi(10, -0.1, rng.New(1)); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := ErdosRenyi(10, 1.5, rng.New(1)); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := ErdosRenyi(-1, 0.5, rng.New(1)); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := ErdosRenyi(10, 0.5, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	t.Parallel()

	g, err := BarabasiAlbertCSR(300, 4, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	mean := g.MeanDegree()
	if mean < 6 || mean > 9 {
		t.Errorf("BA mean degree %v, want ~8", mean)
	}
	if frac := g.GiantComponentFraction(); frac != 1 {
		t.Errorf("BA graph not connected: %v", frac)
	}
	// A huge m must come back as an error, not panic while sizing the
	// edge arrays, and so must more edges than the CSR's offsets index.
	for _, tc := range []struct {
		name string
		n, m int
		src  *rng.Source
	}{
		{"n < m+1", 3, 4, rng.New(1)},
		{"m=0", 10, 0, rng.New(1)},
		{"nil source", 10, 2, nil},
		{"m=2^40", 1000, 1 << 40, rng.New(1)},
		{"m=4e9", 1000, 4_000_000_000, rng.New(1)},
		{"m*n past the CSR's offsets", 4_000_000_000, 100_000, rng.New(1)},
	} {
		if _, err := BarabasiAlbertCSR(tc.n, tc.m, tc.src); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestBarabasiAlbertDeterministic pins the regression mvlint's maporder
// rule caught: attachment targets were drawn from a map in Go's randomized
// iteration order, so a fixed seed produced a different graph every run.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	t.Parallel()

	adjacency := func() string {
		g, err := BarabasiAlbertCSR(120, 3, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for u := 0; u < g.N(); u++ {
			fmt.Fprintf(&b, "%d:%v\n", u, g.Neighbors(u))
		}
		return b.String()
	}
	first := adjacency()
	for i := 0; i < 4; i++ {
		if again := adjacency(); again != first {
			t.Fatalf("run %d: BarabasiAlbertCSR(120, 3, seed 7) produced a different graph", i+2)
		}
	}
}

func TestWattsStrogatz(t *testing.T) {
	t.Parallel()

	g, err := WattsStrogatz(100, 6, 0.1, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if mean := g.MeanDegree(); mean < 5 || mean > 6.2 {
		t.Errorf("WS mean degree %v, want ~6", mean)
	}
	if _, err := WattsStrogatz(10, 3, 0.1, rng.New(1)); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := WattsStrogatz(10, 10, 0.1, rng.New(1)); err == nil {
		t.Error("k >= n accepted")
	}
	if _, err := WattsStrogatz(0, 2, 0.1, rng.New(1)); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := WattsStrogatz(10, 2, -1, rng.New(1)); err == nil {
		t.Error("beta < 0 accepted")
	}
	if _, err := WattsStrogatz(10, 2, 0.5, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestDegreeHistogram(t *testing.T) {
	t.Parallel()

	g := csrOf(t, 4, [][2]int{{0, 1}, {0, 2}})
	h := g.DegreeHistogram()
	// degrees: 2,1,1,0 -> hist[0]=1, hist[1]=2, hist[2]=1
	if h[0] != 1 || h[1] != 2 || h[2] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	t.Parallel()

	// Triangle: clustering = 1.
	tri := csrOf(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	if c := tri.ClusteringCoefficient(); c != 1 {
		t.Errorf("triangle clustering = %v, want 1", c)
	}
	// Path 0-1-2: no triangles.
	path := csrOf(t, 3, [][2]int{{0, 1}, {1, 2}})
	if c := path.ClusteringCoefficient(); c != 0 {
		t.Errorf("path clustering = %v, want 0", c)
	}
}

func TestMeanShortestPathSample(t *testing.T) {
	t.Parallel()

	// Path graph 0-1-2-3: BFS from all sources.
	g := csrOf(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	got := g.MeanShortestPathSample(4)
	// Sum over ordered pairs: (1+2+3)+(1+1+2)+(2+1+1)+(3+2+1)=20 over 12 pairs.
	want := 20.0 / 12.0
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean path = %v, want %v", got, want)
	}
	if empty := csrOf(t, 3, nil); empty.MeanShortestPathSample(3) != 0 {
		t.Error("edgeless graph mean path not 0")
	}
}

func TestDegreeAssortativityRegularGraph(t *testing.T) {
	t.Parallel()

	// A cycle is degree-regular: assortativity undefined (zero variance).
	g := csrOf(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if r := g.DegreeAssortativity(); !isNaN(r) {
		t.Errorf("regular-graph assortativity = %v, want NaN", r)
	}
}

func isNaN(f float64) bool { return f != f }

func TestContactListRoundTrip(t *testing.T) {
	t.Parallel()

	cfg := DefaultPowerLawConfig()
	cfg.N = 100
	cfg.MeanDegree = 10
	g, err := PowerLaw(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteContactLists(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadContactLists(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d -> %d/%d", g.N(), g.M(), back.N(), back.M())
	}
	for u := 0; u < g.N(); u++ {
		a, b := g.Neighbors(u), back.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("node %d degree changed", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d neighbor %d changed", u, i)
			}
		}
	}
}

func TestReadContactListsErrors(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad count", "x\n"},
		{"missing colon", "2\n0 1\n"},
		{"bad node", "2\nq: 1\n"},
		{"node out of range", "2\n5: 0\n"},
		{"neighbor out of range", "2\n0: 9\n"},
		{"self listing", "2\n0: 0\n"},
		{"duplicate neighbor", "3\n0: 1 1\n1: 0 0\n"},
		{"not reciprocal", "3\n0: 1\n1:\n2:\n"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, err := ReadContactLists(strings.NewReader(tt.input)); err == nil {
				t.Errorf("input %q accepted", tt.input)
			}
		})
	}
}

// TestReadContactListsMemoryAndFirstError pins the parser's two costs of
// keeping each node's neighbours in sorted rows: reading the paper-scale
// power-law topology allocates within a small multiple of the CSR it
// returns, and the reciprocity error names the smallest offending pair
// whatever the input order. It measures process-wide allocation, so it
// must not run in parallel with other tests.
func TestReadContactListsMemoryAndFirstError(t *testing.T) {
	g, err := PowerLaw(DefaultPowerLawConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteContactLists(&sb); err != nil {
		t.Fatal(err)
	}
	in := sb.String()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	back, err := ReadContactLists(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*back.Bytes())
	if got > limit {
		t.Errorf("reading %d phones, %d links allocated %d B, want at most 4x the %d-byte CSR", back.N(), back.M(), got, back.Bytes())
	}
	t.Logf("read %d phones, %d links: %d B in %d mallocs for a %d-byte CSR", back.N(), back.M(), got, after.Mallocs-before.Mallocs, back.Bytes())

	// 3 lists 4 and 1 lists 2, neither mirrored; the lines arrive in
	// every order, and the error always names (1, 2).
	lines := []string{"0:", "1: 2", "2:", "3: 4", "4:"}
	want := "1 lists 2 but not vice versa"
	for rot := range lines {
		var in strings.Builder
		in.WriteString("5\n")
		for i := range lines {
			in.WriteString(lines[(rot+len(lines)-1-i)%len(lines)] + "\n")
		}
		if _, err := ReadContactLists(strings.NewReader(in.String())); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("input %q: error %v, want one naming %q", in.String(), err, want)
		}
	}
}

func TestReadContactListsRejectsHugeHeader(t *testing.T) {
	t.Parallel()

	in := "1000000000\n"
	if _, err := ReadContactLists(strings.NewReader(in)); err == nil {
		t.Error("billion-node header accepted")
	}
}

func TestReadContactListsSkipsComments(t *testing.T) {
	t.Parallel()

	in := "# header\n\n3\n0: 1\n1: 0\n2:\n"
	g, err := ReadContactLists(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 1 {
		t.Errorf("N=%d M=%d, want 3, 1", g.N(), g.M())
	}
}

// Property: generated power-law graphs always satisfy the structural
// invariants and have an even degree sum.
func TestQuickPowerLawInvariants(t *testing.T) {
	t.Parallel()

	f := func(seed uint32, rawN, rawMean uint8) bool {
		n := int(rawN)%150 + 20
		mean := float64(int(rawMean)%10 + 2)
		cfg := PowerLawConfig{N: n, MeanDegree: mean, Exponent: 2.3, MinDegree: 1}
		g, err := PowerLaw(cfg, rng.New(uint64(seed)))
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		sum := 0
		for u := 0; u < g.N(); u++ {
			sum += g.Degree(u)
		}
		return sum%2 == 0 && sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: reading back any generated graph reproduces it exactly.
func TestQuickContactListRoundTrip(t *testing.T) {
	t.Parallel()

	f := func(seed uint32) bool {
		g, err := ErdosRenyi(40, 0.15, rng.New(uint64(seed)))
		if err != nil {
			return false
		}
		var sb strings.Builder
		if err := g.WriteContactLists(&sb); err != nil {
			return false
		}
		back, err := ReadContactLists(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if back.N() != g.N() || back.M() != g.M() {
			return false
		}
		for u := 0; u < g.N(); u++ {
			a, b := g.Neighbors(u), back.Neighbors(u)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
