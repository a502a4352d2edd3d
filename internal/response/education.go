package response

import (
	"fmt"
	"strconv"

	"repro/internal/mms"
	"repro/internal/rng"
)

// Education is the phone-user-education mechanism: it reduces the
// probability that users accept infected attachments by lowering the
// consent model's acceptance factor so that the probability of *eventual*
// acceptance equals EventualAcceptance (paper baseline 0.40, studied at
// 0.20 and 0.10).
//
// Education is a standing campaign rather than an outbreak-triggered timer,
// so it takes effect at attach time.
type Education struct {
	// EventualAcceptance is the target probability that a user ever
	// accepts, given unlimited infected messages.
	EventualAcceptance float64
}

var _ mms.Response = (*Education)(nil)

// NewEducation returns a factory for user-education campaigns with the
// given target eventual acceptance.
func NewEducation(eventualAcceptance float64) mms.ResponseFactory {
	return func() mms.Response {
		return &Education{EventualAcceptance: eventualAcceptance}
	}
}

// Name implements mms.Response.
func (e *Education) Name() string {
	return fmt.Sprintf("user-education(acceptance=%.2f)", e.EventualAcceptance)
}

// Attach implements mms.Response: the solved acceptance factor is set on
// every shard (consent is evaluated on the recipient's owner shard).
func (e *Education) Attach(ss *mms.ShardSet, _ *rng.Source) error {
	af, err := mms.SolveAcceptanceFactor(e.EventualAcceptance)
	if err != nil {
		return fmt.Errorf("response: education: %w", err)
	}
	for _, n := range ss.Shards() {
		if err := n.SetAcceptanceFactor(af); err != nil {
			return err
		}
	}
	return nil
}

// Descriptor implements mms.ResponseDescriber: education is fully
// determined by its target eventual acceptance.
func (e *Education) Descriptor() string {
	return "education|acceptance=" + strconv.FormatFloat(e.EventualAcceptance, 'x', -1, 64)
}

var _ mms.ResponseDescriber = (*Education)(nil)
