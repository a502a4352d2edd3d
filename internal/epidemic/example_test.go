package epidemic_test

import (
	"fmt"

	"repro/internal/epidemic"
)

// The MMS virus is a capped SI process: no recovery, and only
// susceptible-share x eventual-acceptance of the population is reachable.
// Its mean-field solution is a logistic that plateaus at the cap — the
// paper's 320-of-1000 plateau as a fraction.
func ExampleSICapped() {
	m := epidemic.SICapped{Beta: 0.4, Cap: 0.32}
	fmt.Printf("i(20h) = %.3f of the population (cap %.2f)\n",
		m.LogisticClosedForm(0.001, 20), m.Cap)
	// Output: i(20h) = 0.289 of the population (cap 0.32)
}
