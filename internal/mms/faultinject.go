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

// PoweredOn reports whether phone id is currently powered on. Phones are
// always on unless the fault schedule configures churn.
func (n *Network) PoweredOn(id PhoneID) bool {
	if !n.pop.valid(id) {
		return false
	}
	return !n.phoneOff(id)
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
	if !n.faults.Churn.Enabled() {
		return
	}
	phones := n.pop.N()
	n.churnSrc = make([]rng.Source, phones)
	n.churnOff = make([]bool, phones)
	n.churnOn = make([]time.Duration, phones)
	for i := 0; i < phones; i++ {
		src.StreamInto(&n.churnSrc[i], churnStreamName(i))
	}
	n.startChurn()
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
	if _, err := n.sim.ScheduleAfter(up, func(*des.Simulation) {
		n.powerOff(id)
	}); err != nil {
		return
	}
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
	if _, err := n.sim.ScheduleAt(n.churnOn[id], func(*des.Simulation) {
		n.powerOn(id)
	}); err != nil {
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
