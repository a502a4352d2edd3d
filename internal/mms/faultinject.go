package mms

import (
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/rng"
)

// FaultKind labels an infrastructure fault occurrence inside the network.
type FaultKind uint8

// Fault kinds.
const (
	// FaultOutageQueued marks a message held in the MMSC store-and-forward
	// queue by an outage or degraded-capacity window.
	FaultOutageQueued FaultKind = iota + 1
	// FaultOutageDrained marks a previously queued message transiting after
	// its fault window closed.
	FaultOutageDrained
	// FaultDeliveryRetry marks a congestion-lost recipient copy being
	// re-attempted under the retry policy.
	FaultDeliveryRetry
	// FaultDeliveryLost marks a recipient copy permanently lost to carrier
	// congestion (retries exhausted or disabled).
	FaultDeliveryLost
	// FaultPhoneOff marks a phone powering down (churn).
	FaultPhoneOff
	// FaultPhoneOn marks a phone powering back up (churn).
	FaultPhoneOn
)

// String renders the kind for traces and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultOutageQueued:
		return "outage-queued"
	case FaultOutageDrained:
		return "outage-drained"
	case FaultDeliveryRetry:
		return "delivery-retry"
	case FaultDeliveryLost:
		return "delivery-lost"
	case FaultPhoneOff:
		return "phone-off"
	case FaultPhoneOn:
		return "phone-on"
	default:
		return "unknown-fault"
	}
}

// FaultEvent is one infrastructure fault occurrence.
type FaultEvent struct {
	// Kind labels the occurrence.
	Kind FaultKind
	// At is the virtual time of the occurrence.
	At time.Duration
	// Phone is the sender for message and copy events, and the cycling
	// phone for churn events.
	Phone PhoneID
	// Recipients is the addressee count for message-level events.
	Recipients int
}

// OnFault registers a callback fired for every infrastructure fault event
// (outage queueing, delivery retries and losses, phone power cycles).
func (n *Network) OnFault(fn func(FaultEvent)) {
	if fn != nil {
		n.onFault = append(n.onFault, fn)
	}
}

func (n *Network) fireFault(ev FaultEvent) {
	for _, fn := range n.onFault {
		fn(ev)
	}
}

func (n *Network) phoneOff(id PhoneID) bool {
	return n.churnOff != nil && n.churnOff[id]
}

// faultWindow returns the outage window covering t, if faults are attached.
func (n *Network) faultWindow(t time.Duration) (faults.Window, bool) {
	if n.faults == nil {
		return faults.Window{}, false
	}
	return n.faults.WindowAt(t)
}

// attachFaults installs the configured fault schedule on a network owning
// the whole population (faults run on one-shard sets only): the "flt"
// stream for outage, drain and backoff draws, and per-phone churn streams
// with every phone's first power-off armed.
func (n *Network) attachFaults(src *rng.Source) {
	if !n.cfg.Faults.Active() {
		return
	}
	n.faults = n.cfg.Faults
	src.StreamInto(&n.faultSrc, 0x666c74) // "flt"
	n.drainH = func(_ *des.Simulation, arg uint64) { n.drain(uint32(arg)) }
	if !n.faults.Churn.Enabled() {
		return
	}
	n.powerOffH = func(_ *des.Simulation, arg uint64) { n.powerOff(PhoneID(arg)) }
	n.powerOnH = func(_ *des.Simulation, arg uint64) { n.powerOn(PhoneID(arg)) }
	phones := n.pop.N()
	n.churnSrc = make([]rng.Source, phones)
	n.churnOff = make([]bool, phones)
	n.churnOn = make([]time.Duration, phones)
	for i := 0; i < phones; i++ {
		src.StreamInto(&n.churnSrc[i], churnStreamName(i))
	}
	n.startChurn()
}

// heldMessage is one message held in the MMSC store-and-forward queue.
type heldMessage struct {
	from    PhoneID
	targets []Target
}

// hold queues a copy of the message in a held slot and schedules its drain
// after delay. DrainSpread makes drains fire out of queue order, so slots
// are recycled by index through heldFree rather than FIFO; a drained slot's
// targets slice is reused, since transit keeps none of it.
func (n *Network) hold(from PhoneID, targets []Target, delay time.Duration) error {
	slot := uint32(len(n.held))
	if k := len(n.heldFree); k > 0 {
		slot, n.heldFree = n.heldFree[k-1], n.heldFree[:k-1]
	} else {
		n.held = append(n.held, heldMessage{})
	}
	m := &n.held[slot]
	m.from = from
	m.targets = append(m.targets[:0], targets...)
	if _, err := n.sim.ScheduleArgAfter(delay, n.drainH, uint64(slot)); err != nil {
		n.heldFree = append(n.heldFree, slot)
		return err
	}
	return nil
}

// drain transits the message held in slot once its fault window has
// closed, then frees the slot.
func (n *Network) drain(slot uint32) {
	m := n.held[slot]
	n.metrics.OutageDrained++
	n.fireFault(FaultEvent{Kind: FaultOutageDrained, At: n.sim.Now(), Phone: m.from, Recipients: len(m.targets)})
	n.transit(m.from, m.targets)
	n.heldFree = append(n.heldFree, slot)
}

// churnStreamName derives the per-phone churn stream name ("chr" | id); the
// shift keeps it clear of the "usr" and "vir" per-phone stream families.
func churnStreamName(id int) uint64 {
	return 0x636872<<24 | uint64(id)
}

// startChurn arms the first power-off event of every phone. Phones begin
// powered on; up- and down-times come from each phone's private stream so
// enabling churn never perturbs user-behaviour or delivery randomness.
func (n *Network) startChurn() {
	for i := 0; i < n.pop.N(); i++ {
		n.schedulePowerOff(PhoneID(i))
	}
}

// churnFloor keeps degenerate churn distributions from wedging the event
// loop in zero-delay power cycles.
const churnFloor = time.Second

func (n *Network) schedulePowerOff(id PhoneID) {
	up := n.faults.Churn.UpTime.Sample(&n.churnSrc[id])
	if up < churnFloor {
		up = churnFloor
	}
	_, _ = n.sim.ScheduleArgAfter(up, n.powerOffH, uint64(uint32(id))) // cannot fail: up > 0
}

func (n *Network) powerOff(id PhoneID) {
	down := n.faults.Churn.DownTime.Sample(&n.churnSrc[id])
	if down < churnFloor {
		down = churnFloor
	}
	now := n.sim.Now()
	n.churnOff[id] = true
	n.churnOn[id] = now + down
	n.metrics.PhonePowerCycles++
	n.fireFault(FaultEvent{Kind: FaultPhoneOff, At: now, Phone: id})
	if _, err := n.sim.ScheduleArgAt(n.churnOn[id], n.powerOnH, uint64(uint32(id))); err != nil {
		// Unreachable (the power-on time is in the future), but a failed
		// schedule must not leave the phone off forever.
		n.churnOff[id] = false
	}
}

func (n *Network) powerOn(id PhoneID) {
	n.churnOff[id] = false
	n.fireFault(FaultEvent{Kind: FaultPhoneOn, At: n.sim.Now(), Phone: id})
	n.schedulePowerOff(id)
}
