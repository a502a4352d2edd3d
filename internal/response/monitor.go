package response

import (
	"fmt"
	"sort"
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

	history  map[mms.PhoneID][]time.Duration
	flagged  map[mms.PhoneID]bool
	lastSent map[mms.PhoneID]time.Duration

	// Attach installs one sub-monitor per shard, each observing only its
	// shard's senders (an exact partition — every send is controlled on
	// its sender's shard), with this instance serving as the merged
	// reporting view.
	set  *mms.ShardSet
	subs []*Monitor
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

// Attach implements mms.Response: one sub-monitor per shard, installed
// as that shard's send controller and legitimate-traffic observer.
func (m *Monitor) Attach(ss *mms.ShardSet, _ *rng.Source) error {
	switch {
	case m.Window <= 0:
		return fmt.Errorf("response: monitor window must be positive")
	case m.Threshold < 1:
		return fmt.Errorf("response: monitor threshold must be at least 1")
	case m.ForcedWait <= 0:
		return fmt.Errorf("response: monitor forced wait must be positive")
	}
	m.set = ss
	m.subs = make([]*Monitor, len(ss.Shards()))
	for s, n := range ss.Shards() {
		sub := &Monitor{
			Window:     m.Window,
			Threshold:  m.Threshold,
			ForcedWait: m.ForcedWait,
			history:    make(map[mms.PhoneID][]time.Duration),
			flagged:    make(map[mms.PhoneID]bool),
			lastSent:   make(map[mms.PhoneID]time.Duration),
		}
		n.AddController(sub)
		m.subs[s] = sub
	}
	return nil
}

// OnSendAttempt implements mms.SendController: flagged phones must respect
// the forced wait since their previous message.
func (m *Monitor) OnSendAttempt(p mms.PhoneID, now time.Duration) mms.SendVerdict {
	if !m.flagged[p] {
		return mms.SendVerdict{Action: mms.ActionAllow}
	}
	last, sentBefore := m.lastSent[p]
	if !sentBefore {
		return mms.SendVerdict{Action: mms.ActionAllow}
	}
	if earliest := last + m.ForcedWait; now < earliest {
		return mms.SendVerdict{Action: mms.ActionDefer, RetryAt: earliest}
	}
	return mms.SendVerdict{Action: mms.ActionAllow}
}

// OnSent implements mms.SendController: record the message, prune the
// window, and flag the phone when the count exceeds the threshold.
func (m *Monitor) OnSent(p mms.PhoneID, now time.Duration, _ int) {
	m.lastSent[p] = now
	h := append(m.history[p], now)
	cutoff := now - m.Window
	start := 0
	for start < len(h) && h[start] < cutoff {
		start++
	}
	h = h[start:]
	m.history[p] = h
	if len(h) > m.Threshold {
		m.flagged[p] = true
	}
}

var _ mms.LegitTrafficObserver = (*Monitor)(nil)

// OnLegitSent implements mms.LegitTrafficObserver: the monitor counts
// total outgoing volume, so legitimate traffic contributes to the window —
// this is how false positives arise when the threshold is set too low.
func (m *Monitor) OnLegitSent(p mms.PhoneID, now time.Duration) {
	m.OnSent(p, now, 1)
}

// Flagged reports whether phone p is currently under the forced wait.
func (m *Monitor) Flagged(p mms.PhoneID) bool {
	return m.subs[m.set.ShardOf(p)].flagged[p]
}

// FlaggedPhones returns the phones currently flagged, in ascending ID
// order. Cross-reference with infection state to measure false positives.
// The per-shard views concatenate in shard order, which is id order
// because shards own contiguous ranges.
func (m *Monitor) FlaggedPhones() []mms.PhoneID {
	var out []mms.PhoneID
	for _, sub := range m.subs {
		out = append(out, sub.ownFlagged()...)
	}
	return out
}

// ownFlagged returns a sub-monitor's flagged phones in ascending ID order.
func (m *Monitor) ownFlagged() []mms.PhoneID {
	out := make([]mms.PhoneID, 0, len(m.flagged))
	for p, f := range m.flagged {
		if f {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
