package virus

import (
	"errors"
	"time"

	"repro/internal/des"
	"repro/internal/mms"
	"repro/internal/rng"
)

// Engine drives the sending behaviour of infected phones for one virus
// scenario. It subscribes to the network's infection and patch events:
// infection activates a phone's sender, patching deactivates it.
type Engine struct {
	cfg Config
	net *mms.Network
	sim *des.Simulation

	// base/slot cover the network's owned id range: slot[id-base] is 0
	// while phone id has no sender, and k once its sender is states[k-1].
	// In an unsharded run base is 0 and slot spans the population; in a
	// sharded run each shard's engine holds only its own phones' slots.
	// states grows on first activation, so only infected phones pay for a
	// sender.
	base   int
	slot   []uint32
	states []senderState
	stats  Stats
	// parent is the engine stream as Attach received it. A sender's
	// generator is derived from it on first activation; StreamInto does
	// not advance it, so the derivation order changes no generator.
	parent rng.Source

	// sendH/rebootH are the payload event handlers (arg = phone id),
	// built once at attach time so the steady-state campaign schedules
	// without per-event closure allocations.
	sendH   des.ArgHandler
	rebootH des.ArgHandler
	// scratch is the reused recipient-list buffer for selectTargets; the
	// network consumes the slice synchronously in Send (the fault hold
	// path copies), so one buffer per engine suffices.
	scratch []mms.Target
}

// Stats counts engine activity for reports.
type Stats struct {
	// Activations is the number of phones whose sender started.
	Activations uint64
	// MessagesAttempted counts send attempts (including deferred/blocked).
	MessagesAttempted uint64
	// MessagesSent counts messages accepted for transit.
	MessagesSent uint64
	// SendsDeferred counts monitoring-style deferrals.
	SendsDeferred uint64
	// SendsBlocked counts phones permanently blocked mid-campaign.
	SendsBlocked uint64
	// QuotaPauses counts pauses waiting for a quota window to reset.
	QuotaPauses uint64
}

type senderState struct {
	active       bool
	src          rng.Source // by value: one allocation for the whole slice
	cursor       int        // contact-cycle position
	sentInWindow int
	windowEnd    time.Duration // QuotaPerPeriod: current window's end
	pending      des.Handle
	blocked      bool
}

// Attach builds an engine for cfg on net, wiring infection/patch listeners.
// src seeds the engine's per-phone randomness.
func Attach(cfg Config, net *mms.Network, src *rng.Source) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if net == nil {
		return nil, errors.New("virus: nil network")
	}
	if src == nil {
		return nil, errors.New("virus: nil rng source")
	}
	e := &Engine{
		cfg:    cfg,
		net:    net,
		sim:    net.Sim(),
		base:   net.Base(),
		slot:   make([]uint32, net.OwnedCount()),
		parent: *src,
	}
	e.sendH = func(_ *des.Simulation, arg uint64) { e.sendOnce(mms.PhoneID(arg)) }
	e.rebootH = func(_ *des.Simulation, arg uint64) { e.onReboot(mms.PhoneID(arg)) }
	net.OnInfection(func(id mms.PhoneID, at time.Duration) {
		e.activate(id)
	})
	net.OnPatched(func(id mms.PhoneID, at time.Duration) {
		e.deactivate(id)
	})
	return e, nil
}

// Config returns the engine's virus configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// activate starts the sending campaign of a newly infected phone.
func (e *Engine) activate(id mms.PhoneID) {
	i := int(id) - e.base
	if i < 0 || i >= len(e.slot) {
		return
	}
	if e.net.Patched(id) {
		return
	}
	if e.slot[i] == 0 {
		e.states = append(e.states, senderState{})
		e.slot[i] = uint32(len(e.states))
		// Stream names are global phone ids, so a sharded engine derives
		// exactly the generators the unsharded engine would for its phones.
		e.parent.StreamInto(&e.states[len(e.states)-1].src, 0x766972<<20|uint64(id)) // "vir" | id
	}
	st := &e.states[e.slot[i]-1]
	if st.active {
		return
	}
	st.active = true
	e.stats.Activations++
	// Contact lists have no canonical order; start the cycle at a random
	// position so a quota- or blacklist-truncated campaign hits an
	// unbiased sample of the list rather than its first entries.
	if deg := len(e.net.Contacts(id)); deg > 0 {
		st.cursor = st.src.Intn(deg)
	}
	now := e.sim.Now()
	first := e.cfg.Dormancy + e.cfg.wait(&st.src)
	if e.cfg.Quota == QuotaPerPeriod {
		st.sentInWindow = 0
		if e.cfg.PeriodAligned {
			// Quota windows tick at global multiples of Period; the phone
			// joins the population-wide burst at the next boundary.
			boundary := nextBoundary(now, e.cfg.Period)
			st.windowEnd = boundary + e.cfg.Period
			if wait := boundary - now + e.cfg.wait(&st.src); wait > first {
				first = wait
			}
		} else {
			st.windowEnd = now + e.cfg.Period
		}
	}
	if e.cfg.Quota == QuotaPerReboot {
		st.sentInWindow = 0
		e.scheduleReboot(id)
	}
	e.scheduleSend(id, first)
}

// deactivate permanently stops a phone's sender (patch installed).
func (e *Engine) deactivate(id mms.PhoneID) {
	st := e.state(id)
	if st == nil || !st.active {
		return
	}
	st.active = false
	if st.pending.Valid() {
		e.sim.Cancel(st.pending)
		st.pending = des.Handle{}
	}
}

// state returns phone id's sender, or nil when the phone was never
// activated or this engine does not cover id (another shard's engine does).
func (e *Engine) state(id mms.PhoneID) *senderState {
	i := int(id) - e.base
	if i < 0 || i >= len(e.slot) || e.slot[i] == 0 {
		return nil
	}
	return &e.states[e.slot[i]-1]
}

// Active reports whether phone id's sender is currently active.
func (e *Engine) Active(id mms.PhoneID) bool {
	st := e.state(id)
	return st != nil && st.active
}

func (e *Engine) scheduleSend(id mms.PhoneID, delay time.Duration) {
	st := e.state(id)
	if st.pending.Valid() {
		e.sim.Cancel(st.pending)
	}
	h, err := e.sim.ScheduleArgAfter(delay, e.sendH, uint64(uint32(id)))
	if err != nil {
		// ScheduleArgAfter clamps negative delays; this is unreachable, but a
		// failed schedule must not leave a stale handle.
		st.pending = des.Handle{}
		return
	}
	st.pending = h
}

// nextBoundary returns the earliest multiple of period at or after now.
func nextBoundary(now, period time.Duration) time.Duration {
	k := now / period
	b := k * period
	if b < now {
		b += period
	}
	return b
}

func (e *Engine) scheduleReboot(id mms.PhoneID) {
	st := e.state(id)
	delay := e.cfg.RebootInterval.Sample(&st.src)
	if _, err := e.sim.ScheduleArgAfter(delay, e.rebootH, uint64(uint32(id))); err != nil {
		return
	}
}

func (e *Engine) onReboot(id mms.PhoneID) {
	st := e.state(id)
	if st == nil || !st.active {
		return
	}
	wasExhausted := st.sentInWindow >= e.cfg.MessagesPerQuota
	st.sentInWindow = 0
	if wasExhausted && !st.pending.Valid() && !st.blocked {
		// The sender paused on quota; resume after a fresh wait.
		e.scheduleSend(id, e.cfg.wait(&st.src))
	}
	e.scheduleReboot(id)
}

// sendOnce performs one send attempt for phone id and schedules the next.
func (e *Engine) sendOnce(id mms.PhoneID) {
	st := e.state(id)
	if st == nil {
		return
	}
	st.pending = des.Handle{}
	if !st.active || st.blocked {
		return
	}
	if e.net.Patched(id) {
		st.active = false
		return
	}
	now := e.sim.Now()

	// Quota bookkeeping.
	switch e.cfg.Quota {
	case QuotaPerPeriod:
		for now >= st.windowEnd {
			st.windowEnd += e.cfg.Period
			st.sentInWindow = 0
		}
		if st.sentInWindow >= e.cfg.MessagesPerQuota {
			e.stats.QuotaPauses++
			e.scheduleSend(id, st.windowEnd-now)
			return
		}
	case QuotaPerReboot:
		if st.sentInWindow >= e.cfg.MessagesPerQuota {
			// Paused until the next reboot resets the counter; the reboot
			// handler resumes sending.
			e.stats.QuotaPauses++
			return
		}
	case QuotaNone:
	}

	targets := e.selectTargets(id, st)
	if len(targets) == 0 {
		// No one to message (empty contact list): the campaign ends.
		st.active = false
		return
	}
	e.stats.MessagesAttempted++
	res, err := e.net.Send(id, targets)
	// An infection listener run inside Send could grow states and move
	// st; fetch it again.
	st = e.state(id)
	if err != nil {
		st.active = false
		return
	}
	switch res.Outcome {
	case mms.OutcomeBlocked:
		e.stats.SendsBlocked++
		st.blocked = true
		st.active = false
	case mms.OutcomeDeferred:
		e.stats.SendsDeferred++
		e.scheduleSend(id, res.RetryAt-now)
	case mms.OutcomeSent:
		e.stats.MessagesSent++
		st.sentInWindow++
		e.scheduleSend(id, e.cfg.wait(&st.src))
	}
}

// selectTargets builds the recipient list for one message into the
// engine's reused scratch buffer; the returned slice is valid until the
// next call.
func (e *Engine) selectTargets(id mms.PhoneID, st *senderState) []mms.Target {
	k := e.cfg.RecipientsPerMessage
	switch e.cfg.Targeting {
	case TargetContacts:
		contacts := e.net.Contacts(id)
		if len(contacts) == 0 {
			return nil
		}
		if k > len(contacts) {
			k = len(contacts)
		}
		e.scratch = e.scratch[:0]
		switch e.cfg.ContactOrder {
		case OrderCycle:
			// The cursor starts below the row length (activate) and the
			// row never changes, so a compare wraps it.
			for i := 0; i < k; i++ {
				c := contacts[st.cursor]
				if st.cursor++; st.cursor == len(contacts) {
					st.cursor = 0
				}
				e.scratch = append(e.scratch, mms.ValidTarget(mms.PhoneID(c)))
			}
		case OrderRandom:
			for i := 0; i < k; i++ {
				c := contacts[st.src.Intn(len(contacts))]
				e.scratch = append(e.scratch, mms.ValidTarget(mms.PhoneID(c)))
			}
		}
		return e.scratch
	case TargetRandom:
		e.scratch = e.scratch[:0]
		n := e.net.N()
		for i := 0; i < k; i++ {
			if !st.src.Bool(e.cfg.ValidNumberFraction) {
				e.scratch = append(e.scratch, mms.InvalidTarget())
				continue
			}
			// Dial a uniformly random real phone other than the sender.
			v := st.src.Intn(n)
			if mms.PhoneID(v) == id {
				v = (v + 1) % n
			}
			e.scratch = append(e.scratch, mms.ValidTarget(mms.PhoneID(v)))
		}
		return e.scratch
	default:
		return nil
	}
}
