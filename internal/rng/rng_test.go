package rng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	t.Parallel()

	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with equal seeds diverged: %d vs %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	t.Parallel()

	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("sources with different seeds matched on %d of 100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	t.Parallel()

	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate all-zero sequence")
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()

	s := New(7)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64MeanVariance(t *testing.T) {
	t.Parallel()

	s := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	t.Parallel()

	s := New(3)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()

	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nSmallRangeUnbiased(t *testing.T) {
	t.Parallel()

	s := New(5)
	counts := make([]int, 3)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[s.Uint64n(3)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/3) > 0.01 {
			t.Errorf("bucket %d frequency %v, want ~1/3", i, frac)
		}
	}
}

func TestExpMean(t *testing.T) {
	t.Parallel()

	s := New(9)
	const n = 200000
	const mean = 3.5
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("exponential mean = %v, want ~%v", got, mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	t.Parallel()

	s := New(9)
	if got := s.Exp(0); got != 0 {
		t.Errorf("Exp(0) = %v, want 0", got)
	}
	if got := s.Exp(-1); got != 0 {
		t.Errorf("Exp(-1) = %v, want 0", got)
	}
}

func TestBoolProbability(t *testing.T) {
	t.Parallel()

	s := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %v, want ~0.3", frac)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	if s.Bool(-0.5) {
		t.Error("Bool(-0.5) returned true")
	}
	if !s.Bool(1.5) {
		t.Error("Bool(1.5) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()

	s := New(31)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid or duplicate element %d", v)
		}
		seen[v] = true
	}
}

// Pin: Perm is the identity shuffled by Shuffle, consuming the same draws.
func TestPermMatchesShuffle(t *testing.T) {
	t.Parallel()

	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for seed := uint64(1); seed <= 3; seed++ {
			a, b := New(seed), New(seed)
			got := a.Perm(n)
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			b.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			if !slices.Equal(got, want) {
				t.Errorf("Perm(%d) seed %d = %v, Shuffle gives %v", n, seed, got, want)
			}
			if g, w := a.Uint64(), b.Uint64(); g != w {
				t.Errorf("Perm(%d) seed %d: next draw %#x, after Shuffle %#x", n, seed, g, w)
			}
		}
	}
}

func TestStreamIndependentOfParentAdvance(t *testing.T) {
	t.Parallel()

	a := New(99)
	c1 := a.Stream(7)
	c2 := a.Stream(7)
	if c1.Uint64() != c2.Uint64() {
		t.Fatal("Stream with same name from same parent state diverged")
	}
	// Different names must differ.
	d := a.Stream(8)
	if c1.Uint64() == d.Uint64() && c1.Uint64() == d.Uint64() {
		t.Fatal("Stream with different names produced identical draws")
	}
}

func TestSplitAdvancesParent(t *testing.T) {
	t.Parallel()

	a := New(123)
	b := New(123)
	_ = a.Split()
	// After a split the parent must have advanced relative to a fresh copy.
	if a.Uint64() == b.Uint64() {
		t.Fatal("Split did not advance parent state")
	}
}

func TestStateRoundTrip(t *testing.T) {
	t.Parallel()

	a, b := New(77), New(77)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	if a.State() == b.State() {
		t.Fatal("State did not change as the source advanced")
	}
	for i := 0; i < 10; i++ {
		b.Uint64()
	}
	if a.State() != b.State() {
		t.Fatalf("same seed and draws gave states %v and %v", a.State(), b.State())
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("sources with equal states diverged")
		}
	}
}

// Property: streams derived with distinct names have low pairwise collision
// rates on their first draws.
func TestQuickStreamDecorrelation(t *testing.T) {
	t.Parallel()

	parent := New(4242)
	f := func(a, b uint16) bool {
		if a == b {
			return true
		}
		sa := parent.Stream(uint64(a))
		sb := parent.Stream(uint64(b))
		return sa.Uint64() != sb.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Uint64n(n) < n for all nonzero n.
func TestQuickUint64nInRange(t *testing.T) {
	t.Parallel()

	s := New(55)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Intn results are within range for positive n.
func TestQuickIntnInRange(t *testing.T) {
	t.Parallel()

	s := New(56)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// StreamInto must produce exactly the generator Stream produces, for any
// parent state and name: the SoA population derives per-phone sources
// through StreamInto and the legacy path used Stream, so any divergence
// would break byte-identical determinism.
func TestStreamIntoMatchesStream(t *testing.T) {
	t.Parallel()

	parent := New(99)
	parent.Uint64() // advance to a non-trivial state
	names := []uint64{0, 1, 0x757372<<16 | 42, 0x6e6574, ^uint64(0)}
	for _, name := range names {
		want := parent.Stream(name)
		var got Source
		parent.StreamInto(&got, name)
		if got.State() != want.State() {
			t.Errorf("StreamInto(%#x) state = %v, Stream = %v", name, got.State(), want.State())
		}
		for i := 0; i < 8; i++ {
			a, b := got.Uint64(), want.Uint64()
			if a != b {
				t.Fatalf("StreamInto(%#x) draw %d = %#x, Stream = %#x", name, i, a, b)
			}
		}
	}
}

// StreamInto must not advance or otherwise perturb the parent.
func TestStreamIntoLeavesParentUntouched(t *testing.T) {
	t.Parallel()

	parent := New(7)
	before := parent.State()
	var child Source
	parent.StreamInto(&child, 123)
	if parent.State() != before {
		t.Errorf("StreamInto changed parent state %v -> %v", before, parent.State())
	}
}
