package mms

import (
	"errors"
	"fmt"
	"math"
)

// PaperAcceptanceFactor is the Acceptance Factor used throughout the paper's
// simulations: the probability of accepting the n-th received infected
// message is 0.468 / 2^n, which makes the probability of eventual acceptance
// approximately 0.40.
const PaperAcceptanceFactor = 0.468

// AcceptanceProbability returns the probability that a user accepts the n-th
// infected message they have received (n >= 1): AF / 2^n. Out-of-range
// inputs return 0, and so does n >= 1024, where 2^n overflows to +Inf: a
// probability of exactly 0 lets the consent draw be skipped.
func AcceptanceProbability(acceptanceFactor float64, n int) float64 {
	if n < 1 || n >= 1024 || acceptanceFactor <= 0 {
		return 0
	}
	p := math.Ldexp(acceptanceFactor, -n)
	if p > 1 {
		return 1
	}
	return p
}

// EventualAcceptance returns the probability that a user who receives an
// unbounded stream of infected messages eventually accepts one:
// 1 - prod_{n>=1} (1 - AF/2^n). For the paper's AF = 0.468 this is ~0.40.
func EventualAcceptance(acceptanceFactor float64) float64 {
	if acceptanceFactor <= 0 {
		return 0
	}
	survive := 1.0
	for n := 1; n <= 64; n++ {
		p := AcceptanceProbability(acceptanceFactor, n)
		if p <= 0 {
			break
		}
		survive *= 1 - p
	}
	return 1 - survive
}

// maxEventualAcceptance is EventualAcceptance(2): with AF=2 the first
// message is always accepted, the supremum of this consent family.
var errTargetOutOfRange = errors.New("mms: target eventual acceptance unreachable")

// SolveAcceptanceFactor inverts EventualAcceptance: it returns the AF whose
// eventual acceptance equals target. The paper's user-education studies
// reduce the 0.40 baseline to 0.20 and 0.10 this way. Targets must lie in
// (0, 1); targets above the family's supremum (AF=2 accepts the first
// message with certainty) are rejected.
func SolveAcceptanceFactor(target float64) (float64, error) {
	if target <= 0 || target >= 1 || math.IsNaN(target) {
		return 0, fmt.Errorf("%w: target %v outside (0,1)", errTargetOutOfRange, target)
	}
	lo, hi := 0.0, 2.0
	if EventualAcceptance(hi) < target {
		return 0, fmt.Errorf("%w: target %v above supremum %v",
			errTargetOutOfRange, target, EventualAcceptance(hi))
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if EventualAcceptance(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
