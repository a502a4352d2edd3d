// Package epidemic implements mean-field epidemiological baselines,
// integrated with a fixed-step fourth-order Runge–Kutta scheme: a capped SI
// (logistic) model and the SIR compartment model [1].
//
// The customvirus example cross-checks a simulated infection curve against
// the capped SI model: an MMS virus without recovery behaves like an SI
// process whose plateau is capped by the eventual-acceptance probability.
// SIR has no caller outside its tests yet; it is kept as the analytic
// oracle for the planned conformance tests of the simulator's curves.
package epidemic

import (
	"errors"
	"fmt"
	"math"
)

// Deriv computes dy/dt at time t for state y, writing into dst (same length
// as y).
type Deriv func(t float64, y, dst []float64)

// RK4 integrates dy/dt = f from t0 to t1 in steps of h, starting at y0. It
// returns the state at t1. The final step is shortened to land exactly on
// t1. It returns an error for invalid spans or step sizes.
func RK4(f Deriv, y0 []float64, t0, t1, h float64) ([]float64, error) {
	if f == nil {
		return nil, errors.New("epidemic: nil derivative")
	}
	if h <= 0 {
		return nil, errors.New("epidemic: step size must be positive")
	}
	if t1 < t0 {
		return nil, fmt.Errorf("epidemic: integration span [%v,%v] reversed", t0, t1)
	}
	n := len(y0)
	y := append([]float64(nil), y0...)
	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	tmp := make([]float64, n)

	t := t0
	for t < t1 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		f(t, y, k1)
		for i := range tmp {
			tmp[i] = y[i] + step/2*k1[i]
		}
		f(t+step/2, tmp, k2)
		for i := range tmp {
			tmp[i] = y[i] + step/2*k2[i]
		}
		f(t+step/2, tmp, k3)
		for i := range tmp {
			tmp[i] = y[i] + step*k3[i]
		}
		f(t+step, tmp, k4)
		for i := range y {
			y[i] += step / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
		}
		t += step
	}
	return y, nil
}

// SIR is the mean-field susceptible-infected-recovered model with contact
// rate Beta and recovery rate Gamma (per hour), normalized to a unit
// population.
type SIR struct {
	Beta  float64
	Gamma float64
}

// R0 returns the basic reproduction number Beta/Gamma (+Inf for Gamma = 0).
func (m SIR) R0() float64 {
	if m.Gamma == 0 {
		return math.Inf(1)
	}
	return m.Beta / m.Gamma
}

// SIRState is one point of an SIR trajectory.
type SIRState struct {
	T, S, I, R float64
}

// Solve integrates from (s0, i0, 1-s0-i0) over hours with nPoints+1 outputs.
func (m SIR) Solve(s0, i0, hours float64, nPoints int) ([]SIRState, error) {
	if m.Beta < 0 || m.Gamma < 0 {
		return nil, errors.New("epidemic: SIR rates must be non-negative")
	}
	if s0 < 0 || i0 < 0 || s0+i0 > 1 {
		return nil, fmt.Errorf("epidemic: invalid initial state s0=%v i0=%v", s0, i0)
	}
	if nPoints < 1 {
		return nil, errors.New("epidemic: need at least one output interval")
	}
	deriv := func(_ float64, y, dst []float64) {
		s, i := y[0], y[1]
		dst[0] = -m.Beta * s * i
		dst[1] = m.Beta*s*i - m.Gamma*i
		dst[2] = m.Gamma * i
	}
	y := []float64{s0, i0, 1 - s0 - i0}
	out := make([]SIRState, 0, nPoints+1)
	out = append(out, SIRState{T: 0, S: y[0], I: y[1], R: y[2]})
	dt := hours / float64(nPoints)
	for p := 1; p <= nPoints; p++ {
		var err error
		y, err = RK4(deriv, y, float64(p-1)*dt, float64(p)*dt, dt/50)
		if err != nil {
			return nil, err
		}
		out = append(out, SIRState{T: float64(p) * dt, S: y[0], I: y[1], R: y[2]})
	}
	return out, nil
}

// SICapped is the SI model with a capped susceptible pool, the mean-field
// analogue of the paper's MMS virus: no recovery, and only AcceptCap of the
// population ever accepts. dI/dt = Beta*I*(Cap-I)/Cap over the unit
// population, plateauing at Cap.
type SICapped struct {
	// Beta is the effective contact rate (per hour).
	Beta float64
	// Cap is the reachable fraction: susceptible share times eventual
	// acceptance (paper: 0.8 * 0.40 = 0.32).
	Cap float64
}

// Solve integrates the capped SI model from infected fraction i0.
func (m SICapped) Solve(i0, hours float64, nPoints int) ([]float64, error) {
	if m.Beta < 0 {
		return nil, errors.New("epidemic: SI rate must be non-negative")
	}
	if m.Cap <= 0 || m.Cap > 1 {
		return nil, fmt.Errorf("epidemic: cap %v outside (0,1]", m.Cap)
	}
	if i0 < 0 || i0 > m.Cap {
		return nil, fmt.Errorf("epidemic: initial fraction %v outside [0,cap]", i0)
	}
	if nPoints < 1 {
		return nil, errors.New("epidemic: need at least one output interval")
	}
	deriv := func(_ float64, y, dst []float64) {
		i := y[0]
		dst[0] = m.Beta * i * (m.Cap - i) / m.Cap
	}
	out := make([]float64, 0, nPoints+1)
	out = append(out, i0)
	y := []float64{i0}
	dt := hours / float64(nPoints)
	for p := 1; p <= nPoints; p++ {
		var err error
		y, err = RK4(deriv, y, float64(p-1)*dt, float64(p)*dt, dt/50)
		if err != nil {
			return nil, err
		}
		out = append(out, y[0])
	}
	return out, nil
}

// LogisticClosedForm returns the exact solution of the capped SI model at
// time t, used to validate the integrator: i(t) = Cap / (1 + A*exp(-Beta*t))
// with A = (Cap - i0)/i0.
func (m SICapped) LogisticClosedForm(i0, t float64) float64 {
	if i0 <= 0 {
		return 0
	}
	a := (m.Cap - i0) / i0
	return m.Cap / (1 + a*math.Exp(-m.Beta*t))
}
