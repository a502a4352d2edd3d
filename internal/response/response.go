// Package response implements the six mobile-phone virus response mechanisms
// of the paper's Section 3, grouped by response point:
//
//   - Point of reception: gateway virus Scan (signature-based, activates
//     after a delay and then stops every infected message) and gateway
//     Detector (heuristic, stops each infected message with a configurable
//     accuracy after an analysis period).
//   - Point of infection: user Education (reduces the consent model's
//     eventual acceptance probability) and Immunizer (develops a patch after
//     detection and deploys it uniformly over a window).
//   - Point of dissemination: Monitor (flags phones exceeding an outgoing
//     message threshold within a window and enforces a minimum wait between
//     their messages) and Blacklist (blocks all outgoing MMS from a phone
//     after a threshold of suspected infected messages).
//
// Each mechanism is an mms.Response built by a factory so every replication
// gets fresh state, and every parameter studied in the paper's Section 5 is
// exposed.
package response

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/mms"
	"repro/internal/rng"
)

// Scan is the gateway virus-scan mechanism: once the virus is detectable and
// the new signature has been added (ActivationDelay later), the gateway
// drops every infected message.
type Scan struct {
	// ActivationDelay is the time to identify the virus and add its
	// signature after the virus reaches a detectable level (paper: 6, 12,
	// or 24 hours).
	ActivationDelay time.Duration

	// Activation is armed at detection, and every shard's gateway compares
	// inspection time against it. With more than one shard it is written
	// only between windows and read only during them (ordered by the
	// barrier hand-off).
	armed      bool
	activateAt time.Duration
}

var (
	_ mms.Response          = (*Scan)(nil)
	_ mms.Filter            = (*Scan)(nil)
	_ mms.ResponseDescriber = (*Scan)(nil)
)

// NewScan returns a factory for gateway virus scans with the given
// signature activation delay.
func NewScan(activationDelay time.Duration) mms.ResponseFactory {
	return func() mms.Response {
		return &Scan{ActivationDelay: activationDelay}
	}
}

// Name implements mms.Response.
func (s *Scan) Name() string {
	return fmt.Sprintf("gateway-scan(delay=%v)", s.ActivationDelay)
}

// Attach implements mms.Response: the filter is stateless apart from the
// activation time, so one instance serves every shard's gateway.
func (s *Scan) Attach(ss *mms.ShardSet, _ *rng.Source) error {
	if s.ActivationDelay < 0 {
		return errors.New("response: negative scan activation delay")
	}
	for _, n := range ss.Shards() {
		n.AddFilter(s)
	}
	ss.OnVirusDetected(func(at time.Duration) {
		s.activateAt = at + s.ActivationDelay
		s.armed = true
	})
	return nil
}

// Inspect implements mms.Filter: once active, every infected message is
// recognized by signature and dropped.
func (s *Scan) Inspect(_ mms.PhoneID, _ int, now time.Duration) mms.FilterVerdict {
	if s.ActiveAt(now) {
		return mms.VerdictDrop
	}
	return mms.VerdictDeliver
}

// ActiveAt reports whether the signature is deployed at virtual time now.
func (s *Scan) ActiveAt(now time.Duration) bool {
	return s.armed && now >= s.activateAt
}

// Descriptor implements mms.ResponseDescriber: the scan's behaviour is
// fully determined by its activation delay.
func (s *Scan) Descriptor() string {
	return "scan|delay=" + strconv.FormatInt(int64(s.ActivationDelay), 10)
}
