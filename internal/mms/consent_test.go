package mms

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAcceptanceProbability(t *testing.T) {
	t.Parallel()

	tests := []struct {
		af   float64
		n    int
		want float64
	}{
		{0.468, 1, 0.234},
		{0.468, 2, 0.117},
		{0.468, 3, 0.0585},
		{0.468, 0, 0},
		{0.468, -1, 0},
		{0, 1, 0},
		{-1, 1, 0},
		{2, 1, 1}, // clamped to 1
	}
	for _, tt := range tests {
		if got := AcceptanceProbability(tt.af, tt.n); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("AcceptanceProbability(%v, %d) = %v, want %v", tt.af, tt.n, got, tt.want)
		}
	}
}

// TestAcceptanceProbabilityMatchesPow pins AcceptanceProbability bit for bit
// to the AF / math.Pow(2, n) formula, through the subnormal results and the
// n >= 1024 overflow to 0: a result that differed in one bit could change
// whether a consent draw happens, and so every trajectory after it.
func TestAcceptanceProbabilityMatchesPow(t *testing.T) {
	t.Parallel()

	pow := func(af float64, n int) float64 {
		if n < 1 || af <= 0 {
			return 0
		}
		return min(af/math.Pow(2, float64(n)), 1)
	}
	for _, af := range []float64{PaperAcceptanceFactor, 1, 1.7, 5e-300} {
		for n := 0; n <= 2048; n++ {
			got, want := AcceptanceProbability(af, n), pow(af, n)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("AcceptanceProbability(%v, %d) = %v (%#x), want %v (%#x)",
					af, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestEventualAcceptancePaperValue(t *testing.T) {
	t.Parallel()

	// The paper: AF = 0.468 gives eventual acceptance ~0.40.
	got := EventualAcceptance(PaperAcceptanceFactor)
	if math.Abs(got-0.40) > 0.005 {
		t.Errorf("EventualAcceptance(0.468) = %v, want ~0.40", got)
	}
	if EventualAcceptance(0) != 0 {
		t.Error("EventualAcceptance(0) != 0")
	}
	if EventualAcceptance(-1) != 0 {
		t.Error("EventualAcceptance(-1) != 0")
	}
}

func TestEventualAcceptanceMonotone(t *testing.T) {
	t.Parallel()

	prev := 0.0
	for af := 0.05; af <= 2.0; af += 0.05 {
		cur := EventualAcceptance(af)
		if cur < prev {
			t.Fatalf("EventualAcceptance not monotone at AF=%v: %v < %v", af, cur, prev)
		}
		prev = cur
	}
}

func TestSolveAcceptanceFactor(t *testing.T) {
	t.Parallel()

	for _, target := range []float64{0.40, 0.20, 0.10, 0.05} {
		af, err := SolveAcceptanceFactor(target)
		if err != nil {
			t.Fatalf("SolveAcceptanceFactor(%v): %v", target, err)
		}
		if got := EventualAcceptance(af); math.Abs(got-target) > 1e-9 {
			t.Errorf("EventualAcceptance(%v) = %v, want %v", af, got, target)
		}
	}
	// The paper's 0.40 target should recover roughly AF = 0.468.
	af, err := SolveAcceptanceFactor(0.40)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(af-PaperAcceptanceFactor) > 0.01 {
		t.Errorf("AF for 0.40 = %v, want ~0.468", af)
	}
}

func TestSolveAcceptanceFactorErrors(t *testing.T) {
	t.Parallel()

	for _, target := range []float64{0, -0.5, 1, 1.5, math.NaN()} {
		if _, err := SolveAcceptanceFactor(target); err == nil {
			t.Errorf("target %v accepted", target)
		}
	}
}

// Property: the solver inverts EventualAcceptance across its range.
func TestQuickSolverInverts(t *testing.T) {
	t.Parallel()

	f := func(raw uint16) bool {
		target := 0.01 + 0.65*float64(raw)/65535 // within the family's range
		af, err := SolveAcceptanceFactor(target)
		if err != nil {
			return false
		}
		return math.Abs(EventualAcceptance(af)-target) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
