package epidemic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRK4Exponential(t *testing.T) {
	t.Parallel()

	// dy/dt = y, y(0) = 1 -> y(1) = e.
	f := func(_ float64, y, dst []float64) { dst[0] = y[0] }
	y, err := RK4(f, []float64{1}, 0, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-math.E) > 1e-6 {
		t.Errorf("y(1) = %v, want e", y[0])
	}
}

func TestRK4Harmonic(t *testing.T) {
	t.Parallel()

	// y'' = -y as a system; after 2*pi the state returns to the start.
	f := func(_ float64, y, dst []float64) {
		dst[0] = y[1]
		dst[1] = -y[0]
	}
	y, err := RK4(f, []float64{1, 0}, 0, 2*math.Pi, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-6 || math.Abs(y[1]) > 1e-6 {
		t.Errorf("state after full period = %v, want [1 0]", y)
	}
}

func TestRK4Validation(t *testing.T) {
	t.Parallel()

	f := func(_ float64, y, dst []float64) { dst[0] = 0 }
	if _, err := RK4(nil, []float64{1}, 0, 1, 0.1); err == nil {
		t.Error("nil derivative accepted")
	}
	if _, err := RK4(f, []float64{1}, 0, 1, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := RK4(f, []float64{1}, 1, 0, 0.1); err == nil {
		t.Error("reversed span accepted")
	}
	// Zero-length span is a no-op.
	y, err := RK4(f, []float64{7}, 1, 1, 0.1)
	if err != nil || y[0] != 7 {
		t.Errorf("zero span: %v, %v", y, err)
	}
}

func TestRK4DoesNotMutateInitial(t *testing.T) {
	t.Parallel()

	f := func(_ float64, y, dst []float64) { dst[0] = 1 }
	y0 := []float64{5}
	if _, err := RK4(f, y0, 0, 1, 0.1); err != nil {
		t.Fatal(err)
	}
	if y0[0] != 5 {
		t.Error("initial state mutated")
	}
}

func TestSIRConservationAndFinalSize(t *testing.T) {
	t.Parallel()

	m := SIR{Beta: 0.5, Gamma: 0.25} // R0 = 2
	traj, err := m.Solve(0.999, 0.001, 200, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range traj {
		if total := st.S + st.I + st.R; math.Abs(total-1) > 1e-9 {
			t.Fatalf("population not conserved at t=%v: %v", st.T, total)
		}
		if st.S < -1e-12 || st.I < -1e-12 || st.R < -1e-12 {
			t.Fatalf("negative compartment at t=%v: %+v", st.T, st)
		}
	}
	// Final size relation for R0=2: r solves r = 1 - exp(-2 r) -> ~0.7968.
	final := traj[len(traj)-1].R
	if math.Abs(final-0.7968) > 0.005 {
		t.Errorf("final size = %v, want ~0.7968", final)
	}
	if got := m.R0(); got != 2 {
		t.Errorf("R0 = %v, want 2", got)
	}
	if got := (SIR{Beta: 1}).R0(); !math.IsInf(got, 1) {
		t.Errorf("R0 without recovery = %v, want +Inf", got)
	}
}

func TestSIRValidation(t *testing.T) {
	t.Parallel()

	if _, err := (SIR{Beta: -1, Gamma: 1}).Solve(0.9, 0.1, 10, 10); err == nil {
		t.Error("negative beta accepted")
	}
	if _, err := (SIR{Beta: 1, Gamma: 1}).Solve(0.9, 0.2, 10, 10); err == nil {
		t.Error("s0+i0 > 1 accepted")
	}
	if _, err := (SIR{Beta: 1, Gamma: 1}).Solve(0.9, 0.05, 10, 0); err == nil {
		t.Error("zero intervals accepted")
	}
}

func TestSICappedMatchesClosedForm(t *testing.T) {
	t.Parallel()

	m := SICapped{Beta: 0.3, Cap: 0.32}
	const i0 = 0.001
	traj, err := m.Solve(i0, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p <= 60; p += 10 {
		want := m.LogisticClosedForm(i0, float64(p))
		if got := traj[p]; math.Abs(got-want) > 1e-6 {
			t.Errorf("i(%d) = %v, closed form %v", p, got, want)
		}
	}
	// Plateau at the cap.
	long, err := m.Solve(i0, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if final := long[len(long)-1]; math.Abs(final-0.32) > 1e-6 {
		t.Errorf("plateau = %v, want 0.32 (the paper's 320/1000)", final)
	}
}

func TestSICappedValidation(t *testing.T) {
	t.Parallel()

	if _, err := (SICapped{Beta: -1, Cap: 0.3}).Solve(0.1, 10, 10); err == nil {
		t.Error("negative beta accepted")
	}
	if _, err := (SICapped{Beta: 1, Cap: 0}).Solve(0, 10, 10); err == nil {
		t.Error("zero cap accepted")
	}
	if _, err := (SICapped{Beta: 1, Cap: 0.3}).Solve(0.5, 10, 10); err == nil {
		t.Error("i0 above cap accepted")
	}
	if _, err := (SICapped{Beta: 1, Cap: 0.3}).Solve(0.1, 10, 0); err == nil {
		t.Error("zero intervals accepted")
	}
	if got := (SICapped{Beta: 1, Cap: 0.3}).LogisticClosedForm(0, 10); got != 0 {
		t.Errorf("closed form with i0=0 = %v, want 0", got)
	}
}

// Property: SI-capped trajectories are monotone non-decreasing and bounded
// by the cap.
func TestQuickSICappedMonotoneBounded(t *testing.T) {
	t.Parallel()

	f := func(rawBeta, rawCap, rawI0 uint8) bool {
		beta := 0.05 + float64(rawBeta%40)/20
		cap := 0.05 + 0.9*float64(rawCap)/255
		i0 := cap * float64(rawI0) / 512 // below cap/2
		m := SICapped{Beta: beta, Cap: cap}
		traj, err := m.Solve(i0, 50, 25)
		if err != nil {
			return false
		}
		prev := -1.0
		for _, v := range traj {
			if v < prev-1e-9 || v > cap+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
