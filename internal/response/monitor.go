package response

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/mms"
	"repro/internal/rng"
)

// Monitor is the anomalous-behaviour-monitoring mechanism: the provider
// counts outgoing MMS messages per phone over a sliding window; a phone
// exceeding the threshold is flagged as suspicious and a forced minimum
// wait is imposed between its subsequent outgoing messages. It is the
// paper's most effective defense against the aggressive Virus 3 and
// deliberately blind to viruses whose volume resembles normal traffic.
type Monitor struct {
	// Window is the observation window for the outgoing-message count.
	Window time.Duration
	// Threshold flags a phone when its in-window count exceeds this value.
	// The paper sets it above normal expected usage; DESIGN.md motivates
	// the default of 35 per 24 h.
	Threshold int
	// ForcedWait is the enforced minimum time between outgoing messages of
	// a flagged phone (paper: 15, 30, or 60 minutes).
	ForcedWait time.Duration

	// rows holds one entry per phone by global id, written only by the
	// sender's owner shard (every send is controlled on its sender's
	// shard). A phone's row is allocated at its first send, so a phone
	// that never sends costs one nil pointer.
	rows []*monitorRow
}

// monitorRow is one sending phone's state: its send times inside the
// window, oldest first (so the last entry is its latest send), and whether
// it is under the forced wait.
type monitorRow struct {
	history []time.Duration
	flagged bool
}

var (
	_ mms.Response       = (*Monitor)(nil)
	_ mms.SendController = (*Monitor)(nil)
)

// Default monitoring parameters documented in DESIGN.md: normal users send
// at most a couple of MMS per half hour, so a phone exceeding 2 messages in
// a 30-minute window is anomalous. Virus 1 (>= 30-minute gaps) and Virus 4
// (legitimate-rate traffic) never trip it; Virus 2 trips it but its 30
// daily messages merely spread across the day under the forced wait; Virus
// 3's one-per-minute dialing trips it within minutes — reproducing the
// paper's finding that monitoring bites only on aggressive viruses.
const (
	DefaultMonitorWindow    = 30 * time.Minute
	DefaultMonitorThreshold = 2
)

// NewMonitor returns a factory for monitoring with the given forced wait
// and the default window/threshold.
func NewMonitor(forcedWait time.Duration) mms.ResponseFactory {
	return NewMonitorFull(DefaultMonitorWindow, DefaultMonitorThreshold, forcedWait)
}

// NewMonitorFull returns a factory for monitoring with explicit window,
// threshold, and forced wait.
func NewMonitorFull(window time.Duration, threshold int, forcedWait time.Duration) mms.ResponseFactory {
	return func() mms.Response {
		return &Monitor{Window: window, Threshold: threshold, ForcedWait: forcedWait}
	}
}

// Name implements mms.Response.
func (m *Monitor) Name() string {
	return fmt.Sprintf("monitor(window=%v,threshold=%d,wait=%v)", m.Window, m.Threshold, m.ForcedWait)
}

// Attach implements mms.Response: the monitor is installed as every
// shard's send controller and legitimate-traffic observer.
func (m *Monitor) Attach(ss *mms.ShardSet, _ *rng.Source) error {
	switch {
	case m.Window <= 0:
		return fmt.Errorf("response: monitor window must be positive")
	case m.Threshold < 1:
		return fmt.Errorf("response: monitor threshold must be at least 1")
	case m.ForcedWait <= 0:
		return fmt.Errorf("response: monitor forced wait must be positive")
	}
	m.rows = make([]*monitorRow, ss.N())
	for _, n := range ss.Shards() {
		n.AddController(m)
	}
	return nil
}

// OnSendAttempt implements mms.SendController: flagged phones must respect
// the forced wait since their previous message.
func (m *Monitor) OnSendAttempt(p mms.PhoneID, now time.Duration) mms.SendVerdict {
	r := m.rows[p]
	if r == nil || !r.flagged {
		return mms.SendVerdict{Action: mms.ActionAllow}
	}
	// A flagged phone has sent, and the window never prunes the latest send.
	if earliest := r.history[len(r.history)-1] + m.ForcedWait; now < earliest {
		return mms.SendVerdict{Action: mms.ActionDefer, RetryAt: earliest}
	}
	return mms.SendVerdict{Action: mms.ActionAllow}
}

// OnSent implements mms.SendController: record the message, prune the
// window, and flag the phone when the count exceeds the threshold.
func (m *Monitor) OnSent(p mms.PhoneID, now time.Duration, _ int) {
	r := m.rows[p]
	if r == nil {
		//mvlint:allow hotpath — once per phone, at its first send
		r = &monitorRow{}
		m.rows[p] = r
	}
	h := append(r.history, now)
	cutoff := now - m.Window
	start := 0
	for start < len(h) && h[start] < cutoff {
		start++
	}
	r.history = h[start:]
	if len(r.history) > m.Threshold {
		r.flagged = true
	}
}

var _ mms.LegitTrafficObserver = (*Monitor)(nil)

// OnLegitSent implements mms.LegitTrafficObserver: the monitor counts
// total outgoing volume, so legitimate traffic contributes to the window —
// this is how false positives arise when the threshold is set too low.
func (m *Monitor) OnLegitSent(p mms.PhoneID, now time.Duration) {
	m.OnSent(p, now, 1)
}

// Flagged reports whether phone p is currently under the forced wait
// (false for ids outside the population).
func (m *Monitor) Flagged(p mms.PhoneID) bool {
	return p >= 0 && int(p) < len(m.rows) && m.rows[p] != nil && m.rows[p].flagged
}

// FlaggedPhones returns the phones currently flagged, in ascending ID
// order. Cross-reference with infection state to measure false positives.
func (m *Monitor) FlaggedPhones() []mms.PhoneID {
	var out []mms.PhoneID
	for p, r := range m.rows {
		if r != nil && r.flagged {
			out = append(out, mms.PhoneID(p))
		}
	}
	return out
}

// Descriptor implements mms.ResponseDescriber: monitoring is fully
// determined by its window, threshold, and forced wait.
func (m *Monitor) Descriptor() string {
	return "monitor|window=" + strconv.FormatInt(int64(m.Window), 10) +
		"|threshold=" + strconv.Itoa(m.Threshold) +
		"|wait=" + strconv.FormatInt(int64(m.ForcedWait), 10)
}

var _ mms.ResponseDescriber = (*Monitor)(nil)
