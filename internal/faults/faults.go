// Package faults models unreliable MMS infrastructure: scheduled MMSC
// outage or degraded-capacity windows, per-delivery retries with
// exponential backoff, and phone churn (power-off/reboot cycles).
//
// The paper's response-mechanism analysis assumes the infrastructure
// absorbs the virus traffic unharmed; the related work on response-time
// bounds and outbreak-induced congestion shows that assumption is the
// fragile one. A Schedule is a declarative fault model that any scenario
// can attach through core.Config: the mms network applies it inside the
// delivery path, drawing every random fault decision from a dedicated
// named RNG stream so that enabling faults never perturbs the virus or
// user-behaviour trajectories, and identical (seed, Schedule) pairs
// reproduce byte-identical runs.
package faults

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/rng"
)

// Window is one scheduled infrastructure fault interval [Start, End).
//
// Capacity is the fraction of normal MMSC transit capacity left during the
// window: 0 is a full outage, 0.25 lets one message in four transit
// normally. Messages that do not transit are queued in the MMSC
// store-and-forward buffer and drain when the window closes — they are
// delayed, not lost, which is how real MMS relays behave under congestion.
type Window struct {
	// Start is the window's opening virtual time (inclusive).
	Start time.Duration
	// End is the window's closing virtual time (exclusive).
	End time.Duration
	// Capacity is the surviving transit fraction in [0, 1).
	Capacity float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool {
	return t >= w.Start && t < w.End
}

func (w Window) String() string {
	return fmt.Sprintf("outage[%v,%v)@%.2f", w.Start, w.End, w.Capacity)
}

// RetryPolicy retries delivery copies lost to carrier congestion instead of
// dropping them outright, with exponential backoff and multiplicative
// jitter. The zero value disables retries (the paper's single-Bernoulli
// drop model).
type RetryPolicy struct {
	// MaxAttempts is the number of retries after the initial loss; 0
	// disables retrying.
	MaxAttempts int
	// Base is the first retry's backoff; attempt k backs off Base·2^(k-1),
	// capped at Max.
	Base time.Duration
	// Max caps the backoff (0 means uncapped).
	Max time.Duration
	// Jitter spreads each backoff uniformly over [1-Jitter, 1+Jitter)
	// times its nominal value; it must lie in [0, 1).
	Jitter float64
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 0 }

func (p RetryPolicy) validate() error {
	if p.MaxAttempts == 0 {
		return nil
	}
	switch {
	case p.MaxAttempts < 0:
		return fmt.Errorf("faults: retry attempts %d negative", p.MaxAttempts)
	case p.Base <= 0:
		return fmt.Errorf("faults: retry base backoff %v must be positive", p.Base)
	case p.Max < 0 || (p.Max > 0 && p.Max < p.Base):
		return fmt.Errorf("faults: retry backoff cap %v below base %v", p.Max, p.Base)
	case p.Jitter < 0 || p.Jitter >= 1:
		return fmt.Errorf("faults: retry jitter %v outside [0,1)", p.Jitter)
	}
	return nil
}

// Backoff returns the delay before retry attempt (1-indexed), drawing
// jitter from src. It is deterministic given the source state.
func (p RetryPolicy) Backoff(attempt int, src *rng.Source) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.Max > 0 && d >= p.Max {
			d = p.Max
			break
		}
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if p.Jitter > 0 {
		d = time.Duration(src.Uniform((1-p.Jitter)*float64(d), (1+p.Jitter)*float64(d)))
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (p RetryPolicy) String() string {
	if !p.Enabled() {
		return "retry(off)"
	}
	return fmt.Sprintf("retry(%d,base=%v,max=%v,jitter=%.2f)", p.MaxAttempts, p.Base, p.Max, p.Jitter)
}

// Churn models phone power cycles: each phone alternates between powered-on
// periods drawn from UpTime and powered-off periods drawn from DownTime.
// While off, a phone neither sends (its attempts are deferred to the next
// power-on) nor reads (deliveries wait in its inbox). Both distributions
// must be set together; a nil pair disables churn.
type Churn struct {
	// UpTime is the powered-on duration distribution.
	UpTime rng.Dist
	// DownTime is the powered-off duration distribution.
	DownTime rng.Dist
}

// Enabled reports whether churn is configured.
func (c Churn) Enabled() bool { return c.UpTime != nil || c.DownTime != nil }

func (c Churn) validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.UpTime == nil:
		return errors.New("faults: churn has down-time but no up-time distribution")
	case c.DownTime == nil:
		return errors.New("faults: churn has up-time but no down-time distribution")
	case c.UpTime.Mean() <= 0:
		return fmt.Errorf("faults: churn up-time mean %v must be positive", c.UpTime.Mean())
	case c.DownTime.Mean() <= 0:
		return fmt.Errorf("faults: churn down-time mean %v must be positive", c.DownTime.Mean())
	}
	return nil
}

func (c Churn) String() string {
	if !c.Enabled() {
		return "churn(off)"
	}
	return fmt.Sprintf("churn(up=%v,down=%v)", c.UpTime, c.DownTime)
}

// Schedule is the complete fault model for one run. The zero value injects
// nothing. Schedules are immutable once attached; the same Schedule value
// may be shared across replications.
type Schedule struct {
	// Outages are the MMSC fault windows, sorted by Start and
	// non-overlapping.
	Outages []Window
	// Retry governs recovery of delivery copies lost to congestion.
	Retry RetryPolicy
	// Churn governs phone power cycles.
	Churn Churn
	// DrainSpread spaces out the queued-message drain after a window
	// closes: each queued message transits End + Exp(DrainSpread) rather
	// than all at the same instant. 0 drains everything at End.
	DrainSpread time.Duration
}

// Active reports whether the schedule injects any fault at all.
func (s *Schedule) Active() bool {
	if s == nil {
		return false
	}
	return len(s.Outages) > 0 || s.Retry.Enabled() || s.Churn.Enabled()
}

// Validate checks the schedule. A nil schedule is valid.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, w := range s.Outages {
		if w.End <= w.Start {
			return fmt.Errorf("faults: window %d %v empty or inverted", i, w)
		}
		if w.Start < 0 {
			return fmt.Errorf("faults: window %d %v starts before the run", i, w)
		}
		if w.Capacity < 0 || w.Capacity >= 1 {
			return fmt.Errorf("faults: window %d capacity %v outside [0,1)", i, w.Capacity)
		}
		if i > 0 && w.Start < s.Outages[i-1].End {
			return fmt.Errorf("faults: window %d %v overlaps %v (windows must be sorted and disjoint)",
				i, w, s.Outages[i-1])
		}
	}
	if err := s.Retry.validate(); err != nil {
		return err
	}
	if err := s.Churn.validate(); err != nil {
		return err
	}
	if s.DrainSpread < 0 {
		return fmt.Errorf("faults: drain spread %v negative", s.DrainSpread)
	}
	return nil
}

// WindowAt returns the outage window covering t, if any. Outages must be
// sorted (Validate enforces this); lookup is O(log n). Every send asks, so
// the binary search is hand-rolled: sort.Search's predicate closure would
// allocate per call.
func (s *Schedule) WindowAt(t time.Duration) (Window, bool) {
	if s == nil {
		return Window{}, false
	}
	// First window ending after t.
	lo, hi := 0, len(s.Outages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Outages[mid].End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(s.Outages) && s.Outages[lo].Contains(t) {
		return s.Outages[lo], true
	}
	return Window{}, false
}

// String summarizes the schedule for labels and reports.
func (s *Schedule) String() string {
	if !s.Active() {
		return "faults(none)"
	}
	parts := make([]string, 0, 3)
	if len(s.Outages) > 0 {
		ws := make([]string, len(s.Outages))
		for i, w := range s.Outages {
			ws[i] = w.String()
		}
		parts = append(parts, strings.Join(ws, "+"))
	}
	if s.Retry.Enabled() {
		parts = append(parts, s.Retry.String())
	}
	if s.Churn.Enabled() {
		parts = append(parts, s.Churn.String())
	}
	return "faults(" + strings.Join(parts, " ") + ")"
}
