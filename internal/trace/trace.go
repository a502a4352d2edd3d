// Package trace records structured event logs of a simulation run: message
// attempts, transits, infections, and patches, with virtual timestamps. A
// Recorder attaches to a one-shard run through the same interception points
// the response mechanisms use, so tracing needs no hooks inside the
// simulator itself. Logs can be written as JSON Lines or CSV for offline
// analysis of individual trajectories (the aggregate analysis lives in
// internal/experiment).
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/mms"
	"repro/internal/rng"
)

// Kind labels an event record.
type Kind string

// Event kinds.
const (
	KindSendAttempt Kind = "send-attempt"
	KindSent        Kind = "sent"
	KindInfected    Kind = "infected"
	KindPatched     Kind = "patched"

	// Fault-injection kinds (emitted only when the scenario attaches a
	// faults.Schedule); the strings match mms.FaultKind.String().
	KindOutageQueued  Kind = "outage-queued"
	KindOutageDrained Kind = "outage-drained"
	KindDeliveryRetry Kind = "delivery-retry"
	KindDeliveryLost  Kind = "delivery-lost"
	KindPhoneOff      Kind = "phone-off"
	KindPhoneOn       Kind = "phone-on"
)

// Event is one simulation occurrence.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration `json:"at"`
	// Kind labels the occurrence.
	Kind Kind `json:"kind"`
	// Phone is the acting phone (sender, infected phone, or patched
	// phone).
	Phone mms.PhoneID `json:"phone"`
	// Recipients is the addressee count for message events.
	Recipients int `json:"recipients,omitempty"`
}

// Recorder captures events from a network. Attach it before seeding the
// infection. The zero value is not usable; use NewRecorder.
type Recorder struct {
	events []Event
	limit  int
}

// NewRecorder returns a recorder retaining at most limit events (0 means
// unlimited). Bounding the log keeps memory flat on multi-day floods.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

var (
	_ mms.Response       = (*Recorder)(nil)
	_ mms.SendController = (*Recorder)(nil)
)

// Name implements mms.Response.
func (r *Recorder) Name() string { return "trace-recorder" }

// Attach implements mms.Response. A trace is one event log in event order,
// which a many-shard run has no single notion of, so the recorder attaches
// to one-shard sets only.
func (r *Recorder) Attach(ss *mms.ShardSet, _ *rng.Source) error {
	if ss == nil {
		return fmt.Errorf("trace: nil shard set")
	}
	if len(ss.Shards()) > 1 {
		return fmt.Errorf("trace: the trace recorder needs a one-shard run, got %d shards", len(ss.Shards()))
	}
	n := ss.Shards()[0]
	n.AddController(r)
	n.OnInfection(func(id mms.PhoneID, at time.Duration) {
		r.add(Event{At: at, Kind: KindInfected, Phone: id})
	})
	n.OnPatched(func(id mms.PhoneID, at time.Duration) {
		r.add(Event{At: at, Kind: KindPatched, Phone: id})
	})
	n.OnFault(func(ev mms.FaultEvent) {
		r.add(Event{At: ev.At, Kind: Kind(ev.Kind.String()), Phone: ev.Phone, Recipients: ev.Recipients})
	})
	return nil
}

// OnSendAttempt implements mms.SendController; it only observes.
func (r *Recorder) OnSendAttempt(p mms.PhoneID, now time.Duration) mms.SendVerdict {
	r.add(Event{At: now, Kind: KindSendAttempt, Phone: p})
	return mms.SendVerdict{Action: mms.ActionAllow}
}

// OnSent implements mms.SendController.
func (r *Recorder) OnSent(p mms.PhoneID, now time.Duration, recipients int) {
	r.add(Event{At: now, Kind: KindSent, Phone: p, Recipients: recipients})
}

func (r *Recorder) add(e Event) {
	if r.limit > 0 && len(r.events) >= r.limit {
		return
	}
	r.events = append(r.events, e)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Truncated reports whether the limit was reached.
func (r *Recorder) Truncated() bool {
	return r.limit > 0 && len(r.events) >= r.limit
}

// Events returns a copy of the retained events in occurrence order.
func (r *Recorder) Events() []Event {
	return append([]Event(nil), r.events...)
}

// WriteJSONL emits one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.events {
		if err := enc.Encode(&r.events[i]); err != nil {
			return fmt.Errorf("trace: encode event %d: %w", i, err)
		}
	}
	return nil
}

// WriteCSV emits hours,kind,phone,recipients rows with a header.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"hours", "kind", "phone", "recipients"}); err != nil {
		return fmt.Errorf("trace: write csv header: %w", err)
	}
	for i, e := range r.events {
		row := []string{
			strconv.FormatFloat(e.At.Hours(), 'f', 6, 64),
			string(e.Kind),
			strconv.Itoa(int(e.Phone)),
			strconv.Itoa(e.Recipients),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
