package mms

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Config holds the network-level timing and consent parameters. The zero
// value is not valid; start from DefaultConfig.
type Config struct {
	// DeliveryDelay is the gateway-to-inbox latency distribution.
	DeliveryDelay rng.Dist
	// ReadDelay is how long a new MMS waits in the inbox before the user
	// reads it and decides about the attachment.
	ReadDelay rng.Dist
	// AcceptanceFactor is the consent model's AF (paper: 0.468).
	AcceptanceFactor float64
	// GatewayDetectThreshold is the number of infected messages the gateway
	// must observe before the provider considers the virus detectable.
	GatewayDetectThreshold int
	// AllowDuplicateTrials disables duplicate suppression. By default a
	// user grants at most one consent decision per sender per day: having
	// just deleted an attachment, the user does not reconsider the
	// identical attachment arriving minutes later from the same phone.
	// This is what paces the multi-recipient Virus 2 flood onto the
	// paper's multi-day step curve (see DESIGN.md); single-recipient,
	// slow, or randomly-targeted viruses are unaffected.
	AllowDuplicateTrials bool
	// DeliveryLossProb drops each recipient copy independently with this
	// probability, modeling carrier congestion. The paper assumes the
	// infrastructure absorbs the virus traffic (loss 0); the knob exists
	// for robustness studies of that assumption.
	DeliveryLossProb float64
	// LegitSendInterval, when non-nil, generates background legitimate
	// MMS traffic: every phone sends a legitimate message at these
	// intervals. The paper's model "does not track the delivery of
	// legitimate messages", and neither does this one — legitimate sends
	// are visible only to controllers implementing LegitTrafficObserver,
	// making monitoring false positives measurable.
	LegitSendInterval rng.Dist
	// Faults attaches an infrastructure fault schedule: MMSC outage and
	// degraded-capacity windows (messages queue in the store-and-forward
	// buffer and drain on recovery), per-delivery retry with exponential
	// backoff, and phone churn. Nil injects nothing. All fault randomness
	// comes from dedicated streams, so attaching a schedule never perturbs
	// the fault-free trajectory of the other streams.
	Faults *faults.Schedule
}

// trialPeriod is the duplicate-suppression window: one consent trial per
// sender per target per 24 hours.
const trialPeriod = 24 * time.Hour

// DefaultConfig returns the calibrated defaults documented in DESIGN.md:
// delivery mean 30 s, read mean 30 min, the paper's acceptance factor, and
// detectability after 10 observed infected messages.
func DefaultConfig() Config {
	return Config{
		DeliveryDelay:          rng.Exponential{MeanD: 30 * time.Second},
		ReadDelay:              rng.Exponential{MeanD: 30 * time.Minute},
		AcceptanceFactor:       PaperAcceptanceFactor,
		GatewayDetectThreshold: 10,
	}
}

func (c Config) validate() error {
	switch {
	case c.DeliveryDelay == nil:
		return errors.New("mms: nil delivery-delay distribution")
	case c.ReadDelay == nil:
		return errors.New("mms: nil read-delay distribution")
	case c.AcceptanceFactor <= 0 || c.AcceptanceFactor > 2:
		return fmt.Errorf("mms: acceptance factor %v outside (0,2]", c.AcceptanceFactor)
	case c.DeliveryLossProb < 0 || c.DeliveryLossProb >= 1:
		return fmt.Errorf("mms: delivery loss probability %v outside [0,1)", c.DeliveryLossProb)
	}
	return c.Faults.Validate()
}

// Metrics counts network activity for reports.
type Metrics struct {
	MessagesSent     uint64 // accepted for transit
	MessagesDeferred uint64 // postponed by a controller
	MessagesBlocked  uint64 // refused permanently by a controller
	GatewayDropped   uint64 // discarded by gateway filters
	DeliveryLost     uint64 // copies permanently lost to carrier congestion
	Deliveries       uint64 // recipient inbox arrivals
	Reads            uint64 // user read events
	Acceptances      uint64 // user accepted the attachment
	Infections       uint64 // acceptances that infected a vulnerable phone
	Patched          uint64 // phones patched
	LegitSent        uint64 // background legitimate messages generated

	// Fault-injection counters (zero when Config.Faults is nil).
	OutageQueued     uint64 // messages held by an MMSC fault window
	OutageDrained    uint64 // held messages that transited on recovery
	DeliveryRetries  uint64 // congestion-lost copies re-attempted
	ChurnDeferred    uint64 // sends deferred because the phone was off
	ReadsHeld        uint64 // reads postponed until the phone powered on
	PhonePowerCycles uint64 // churn power-off events
}

// Network is the simulated mobile-phone system: phones, gateway, user
// behaviour, and response-mechanism interception points, all driven by one
// discrete-event simulation.
//
// A Network is one shard of a ShardSet: a view over the set's Population
// owning a contiguous id range. A one-shard set has one Network owning the
// whole population; a many-shard set has one per shard, exchanging
// cross-shard deliveries in batches at window barriers.
type Network struct {
	sim     *des.Simulation
	gateway Gateway // by value: one allocation fewer per shard
	cfg     Config

	pop *Population
	// base/count is the contiguous id range this network owns: it is the
	// only writer of those Population entries while its event queue runs.
	base, count int

	set *ShardSet // the shard set this network belongs to

	netSrc      rng.Source // delivery jitter stream
	controllers []SendController

	// Long-lived des.ArgHandlers, one per event kind, with the per-event
	// state packed into the event argument. attachFaults sets the fault
	// handlers, and only when the schedule uses them.
	readH     des.ArgHandler // arg = packArg(target, from, 0)
	retryH    des.ArgHandler // arg = packArg(from, target, attempt)
	legitH    des.ArgHandler // arg = phone id
	drainH    des.ArgHandler // arg = held slot
	powerOffH des.ArgHandler // arg = phone id
	powerOnH  des.ArgHandler // arg = phone id

	// remote, when non-nil, receives recipient copies addressed outside the
	// owned range instead of local delivery (many-shard sets batch them at
	// the next window barrier). Nil on a one-shard set.
	remote func(at time.Duration, from, target PhoneID)

	// Fault-injection state (nil/empty when cfg.Faults injects nothing).
	faults   *faults.Schedule
	faultSrc rng.Source      // outage, drain, and backoff randomness
	churnSrc []rng.Source    // per-phone power-cycle stream
	churnOff []bool          // phone currently powered off
	churnOn  []time.Duration // next power-on time, valid while off
	held     []heldMessage   // MMSC store-and-forward queue, by slot
	heldFree []uint32        // drained held slots awaiting reuse

	onInfection []func(id PhoneID, at time.Duration)
	onPatched   []func(id PhoneID, at time.Duration)
	onFault     []func(FaultEvent)

	infected int
	metrics  Metrics
	// trials records (sender, target, day) consent decisions already
	// granted, for duplicate suppression. It holds only days that later
	// copies can still reach (see firstTrial); trialsUntil is the next day
	// boundary, where the keys of the days before it expire.
	trials      map[uint64]struct{}
	trialsUntil time.Duration
}

// NoInfector marks a phone infected by seeding rather than by a message.
const NoInfector PhoneID = -1

// NewCSR builds a network over the contact topology topo. vulnerable[i]
// marks phone i as susceptible to the virus (the paper marks 800 of 1,000).
// src seeds all user-behaviour randomness via per-phone streams. The
// network is the single shard of a one-shard ShardSet advanced by sim;
// responses attach to that set through AttachResponse.
func NewCSR(topo *graph.CSR, vulnerable []bool, cfg Config, sim *des.Simulation, src *rng.Source) (*Network, error) {
	if sim == nil {
		return nil, errors.New("mms: nil simulation")
	}
	ss, err := newShardSet(topo, vulnerable, cfg, 1, unbounded, src, sim)
	if err != nil {
		return nil, err
	}
	return ss.nets[0], nil
}

// newShardNetwork wires a Network view over the set's population owning
// [base, base+count). The caller derives netSrc and any fault state
// afterwards.
func newShardNetwork(ss *ShardSet, base, count int, sim *des.Simulation) *Network {
	n := &Network{
		sim:     sim,
		gateway: *NewGateway(ss.cfg.GatewayDetectThreshold),
		cfg:     ss.cfg,
		set:     ss,
		pop:     ss.pop,
		base:    base,
		count:   count,
		trials:  make(map[uint64]struct{}),
	}
	n.readH = func(_ *des.Simulation, arg uint64) {
		n.read(PhoneID(arg>>40&argIDMask), PhoneID(arg>>16&argIDMask))
	}
	n.retryH = func(_ *des.Simulation, arg uint64) {
		n.deliverCopy(PhoneID(arg>>40&argIDMask), PhoneID(arg>>16&argIDMask), int(uint16(arg)))
	}
	n.legitH = func(_ *des.Simulation, arg uint64) { n.legitSend(PhoneID(arg)) }
	return n
}

// argIDMask bounds phone ids packed into event arguments: 24 bits per id,
// the same population ceiling trialKey already imposes (16.7M phones).
const argIDMask = 0xffffff

// packArg packs two phone ids and 16 bits of extra state into one event
// argument for the shared ArgHandlers.
func packArg(a, b PhoneID, extra uint16) uint64 {
	return uint64(uint32(a)&argIDMask)<<40 | uint64(uint32(b)&argIDMask)<<16 | uint64(extra)
}

// scheduleLegitSend arms phone id's next background legitimate message.
// Delays are floored at one second so a degenerate interval distribution
// cannot wedge the simulation in a zero-delay event loop.
func (n *Network) scheduleLegitSend(id PhoneID) {
	delay := n.cfg.LegitSendInterval.Sample(&n.pop.userSrc[id])
	if delay < time.Second {
		delay = time.Second
	}
	if _, err := n.sim.ScheduleArgAfter(delay, n.legitH, uint64(uint32(id))); err != nil {
		return
	}
}

// legitSend fires one background legitimate message from id and re-arms the
// next: only LegitTrafficObserver controllers see it, mirroring the paper's
// model that does not track legitimate deliveries.
func (n *Network) legitSend(id PhoneID) {
	n.metrics.LegitSent++
	now := n.sim.Now()
	for _, c := range n.controllers {
		if obs, ok := c.(LegitTrafficObserver); ok {
			obs.OnLegitSent(id, now)
		}
	}
	n.scheduleLegitSend(id)
}

// Sim returns the underlying simulation (responses use it for timers).
func (n *Network) Sim() *des.Simulation { return n.sim }

// Gateway returns the provider's MMS gateway.
func (n *Network) Gateway() *Gateway { return &n.gateway }

// N returns the population size (the whole population, not the owned range).
func (n *Network) N() int { return n.pop.N() }

// Base returns the first phone id this network owns.
func (n *Network) Base() int { return n.base }

// OwnedCount returns the number of phones this network owns.
func (n *Network) OwnedCount() int { return n.count }

// Owns reports whether this network owns phone id's state.
func (n *Network) Owns(id PhoneID) bool {
	return int(id) >= n.base && int(id) < n.base+n.count
}

// State returns phone id's infection state (StateNotVulnerable is also
// returned for out-of-range ids, which cannot be infected either).
func (n *Network) State(id PhoneID) State {
	if !n.pop.valid(id) {
		return StateNotVulnerable
	}
	return n.pop.state[id]
}

// Contacts returns phone id's sorted contact list (the CSR row). The slice
// aliases the topology; callers must not modify it. Out-of-range ids have no
// contacts.
func (n *Network) Contacts(id PhoneID) []uint32 {
	if !n.pop.valid(id) {
		return nil
	}
	return n.pop.topo.Neighbors(int(id))
}

// Patched reports whether the immunization patch is installed on phone id.
func (n *Network) Patched(id PhoneID) bool {
	return n.pop.valid(id) && n.pop.patched[id]
}

// InfectedAt returns phone id's infection time (meaningful when State is
// StateInfected).
func (n *Network) InfectedAt(id PhoneID) time.Duration {
	if !n.pop.valid(id) {
		return 0
	}
	return n.pop.infectedAt[id]
}

// ReceivedInfected returns how many infected messages phone id's user has
// read — the n in the paper's acceptance probability AF/2^n.
func (n *Network) ReceivedInfected(id PhoneID) int {
	if !n.pop.valid(id) {
		return 0
	}
	return int(n.pop.received[id])
}

// Population returns the shared SoA phone state.
func (n *Network) Population() *Population { return n.pop }

// Metrics returns a snapshot of the network counters.
func (n *Network) Metrics() Metrics { return n.metrics }

// InfectedCount returns the number of infected phones in the owned range
// (the whole population on a one-shard set).
func (n *Network) InfectedCount() int { return n.infected }

// SusceptibleCount returns the number of owned phones still vulnerable.
func (n *Network) SusceptibleCount() int {
	c := 0
	for i := n.base; i < n.base+n.count; i++ {
		if n.pop.vulnerable(PhoneID(i)) {
			c++
		}
	}
	return c
}

// SetAcceptanceFactor changes the consent model's AF; the user-education
// response applies its reduced acceptance probability through this.
func (n *Network) SetAcceptanceFactor(af float64) error {
	if af <= 0 || af > 2 {
		return fmt.Errorf("mms: acceptance factor %v outside (0,2]", af)
	}
	n.cfg.AcceptanceFactor = af
	return nil
}

// AcceptanceFactor returns the consent model's current AF.
func (n *Network) AcceptanceFactor() float64 { return n.cfg.AcceptanceFactor }

// AddController installs a sender-side controller.
func (n *Network) AddController(c SendController) {
	if c != nil {
		n.controllers = append(n.controllers, c)
	}
}

// OnInfection registers a callback fired whenever an owned phone becomes
// infected (including seed infections).
func (n *Network) OnInfection(fn func(id PhoneID, at time.Duration)) {
	if fn != nil {
		n.onInfection = append(n.onInfection, fn)
	}
}

// OnPatched registers a callback fired whenever an owned phone is patched.
func (n *Network) OnPatched(fn func(id PhoneID, at time.Duration)) {
	if fn != nil {
		n.onPatched = append(n.onPatched, fn)
	}
}

// SeedInfection infects the phone immediately, bypassing the consent model;
// it models the outbreak's patient zero. It fails if the phone cannot be
// infected or is not owned by this network.
func (n *Network) SeedInfection(id PhoneID) error {
	if !n.pop.valid(id) || !n.Owns(id) {
		return fmt.Errorf("mms: seed phone %d out of range", id)
	}
	if !n.pop.vulnerable(id) {
		return fmt.Errorf("mms: seed phone %d is %v and cannot be infected", id, n.pop.state[id])
	}
	n.infect(id)
	return nil
}

func (n *Network) infect(id PhoneID) {
	n.pop.state[id] = StateInfected
	at := n.sim.Now()
	n.pop.infectedAt[id] = at
	n.infected++
	n.metrics.Infections++
	for _, fn := range n.onInfection {
		fn(id, at)
	}
}

// Patch installs the immunization patch on a phone: a susceptible phone
// becomes immune; an infected phone keeps its state but stops disseminating
// (listeners such as the virus engine observe OnPatched and cease sending).
func (n *Network) Patch(id PhoneID) error {
	if !n.pop.valid(id) {
		return fmt.Errorf("mms: patch phone %d out of range", id)
	}
	if n.pop.patched[id] {
		return nil
	}
	n.pop.patched[id] = true
	if n.pop.state[id] == StateSusceptible {
		n.pop.state[id] = StateImmune
	}
	n.metrics.Patched++
	for _, fn := range n.onPatched {
		fn(id, n.sim.Now())
	}
	return nil
}

// Send submits one infected MMS from the given phone to targets. The send
// controllers are consulted first; if they allow it, the message enters the
// MMSC. A fault window may hold it in the store-and-forward queue until the
// window closes; otherwise it transits the gateway immediately (which may
// drop it) and deliveries are scheduled for each valid target.
func (n *Network) Send(from PhoneID, targets []Target) (SendResult, error) {
	if !n.pop.valid(from) {
		return SendResult{}, fmt.Errorf("mms: sender %d out of range", from)
	}
	now := n.sim.Now()
	// A powered-off phone cannot reach the MMSC at all; the attempt is
	// deferred until just after the next power-on.
	if n.phoneOff(from) {
		n.metrics.MessagesDeferred++
		n.metrics.ChurnDeferred++
		return SendResult{Outcome: OutcomeDeferred, RetryAt: n.churnOn[from] + time.Second}, nil
	}
	for _, c := range n.controllers {
		v := c.OnSendAttempt(from, now)
		switch v.Action {
		case ActionBlock:
			n.metrics.MessagesBlocked++
			return SendResult{Outcome: OutcomeBlocked}, nil
		case ActionDefer:
			n.metrics.MessagesDeferred++
			retry := v.RetryAt
			if retry <= now {
				retry = now + time.Second
			}
			return SendResult{Outcome: OutcomeDeferred, RetryAt: retry}, nil
		case ActionAllow:
			// consult remaining controllers
		default:
			return SendResult{}, fmt.Errorf("mms: controller %q returned invalid action %d", c.Name(), v.Action)
		}
	}
	n.metrics.MessagesSent++
	for _, c := range n.controllers {
		c.OnSent(from, now, len(targets))
	}
	// MMSC store-and-forward: a fault window holds the whole message until
	// the infrastructure recovers. The gateway neither observes nor
	// inspects the message until it actually transits, so outbreak
	// detection — and every response keyed to it — is delayed along with
	// the deliveries.
	if w, ok := n.faultWindow(now); ok && !n.faultSrc.Bool(w.Capacity) {
		n.metrics.OutageQueued++
		n.fireFault(FaultEvent{Kind: FaultOutageQueued, At: now, Phone: from, Recipients: len(targets)})
		delay := w.End - now
		if n.faults.DrainSpread > 0 {
			delay += time.Duration(n.faultSrc.Exp(float64(n.faults.DrainSpread)))
		}
		if err := n.hold(from, targets, delay); err != nil {
			return SendResult{}, fmt.Errorf("mms: queue message for drain: %w", err)
		}
		return SendResult{Outcome: OutcomeSent, Queued: true}, nil
	}
	delivered, droppedCopies := n.transit(from, targets)
	return SendResult{
		Outcome:        OutcomeSent,
		Delivered:      delivered,
		GatewayDropped: droppedCopies > 0 && delivered == 0,
	}, nil
}

// transit moves one message through the gateway: the provider observes it
// (detection), filters inspect each recipient copy, and surviving copies
// head for their inboxes. It returns the copies scheduled for delivery now
// and the copies dropped by filters.
func (n *Network) transit(from PhoneID, targets []Target) (delivered, droppedCopies int) {
	now := n.sim.Now()
	n.gateway.Observe(now)
	for _, t := range targets {
		if !t.Valid {
			continue
		}
		if t.ID == from || !n.pop.valid(t.ID) {
			continue
		}
		// The gateway fans out one copy per recipient; filters act per copy.
		if !n.gateway.InspectCopy(from, len(targets), now) {
			droppedCopies++
			n.metrics.GatewayDropped++
			continue
		}
		if n.deliverCopy(from, t.ID, 0) {
			delivered++
		}
	}
	return delivered, droppedCopies
}

// deliverCopy pushes one recipient copy toward the target's inbox. attempt
// is 0 for the first try; when the fault schedule configures a retry
// policy, congestion-lost copies back off exponentially and try again
// instead of vanishing. It reports whether the copy was scheduled for
// delivery during this attempt.
func (n *Network) deliverCopy(from, target PhoneID, attempt int) bool {
	now := n.sim.Now()
	// Carrier congestion loses copies independently.
	if n.cfg.DeliveryLossProb > 0 && n.netSrc.Bool(n.cfg.DeliveryLossProb) {
		if n.faults != nil && n.faults.Retry.Enabled() && attempt < n.faults.Retry.MaxAttempts {
			n.metrics.DeliveryRetries++
			n.fireFault(FaultEvent{Kind: FaultDeliveryRetry, At: now, Phone: from})
			backoff := n.faults.Retry.Backoff(attempt+1, &n.faultSrc)
			if _, err := n.sim.ScheduleArgAfter(backoff, n.retryH, packArg(from, target, uint16(attempt+1))); err == nil {
				return false
			}
			// A failed schedule falls through to a permanent loss.
		}
		n.metrics.DeliveryLost++
		n.fireFault(FaultEvent{Kind: FaultDeliveryLost, At: now, Phone: from})
		return false
	}
	n.metrics.Deliveries++
	// A copy addressed outside the owned range is handed to the shard
	// exchange: the receiving shard applies the consent pipeline (read cap,
	// duplicate suppression, read scheduling) at the next window barrier.
	if n.remote != nil && !n.Owns(target) {
		n.remote(now+n.cfg.DeliveryDelay.Sample(&n.netSrc), from, target)
		return true
	}
	// Users who have already received readCap infected messages have an
	// acceptance probability below the generator's resolution (AF/2^64
	// < 2^-53); their reads can no longer change any state, so the
	// event is elided. This keeps the event count bounded under the
	// multi-recipient Virus 2 flood without altering the dynamics.
	if n.pop.received[target] >= readCap {
		return true
	}
	// Duplicate suppression: at most one consent trial per sender per
	// target per day (Config.AllowDuplicateTrials disables this).
	if !n.cfg.AllowDuplicateTrials && !n.firstTrial(from, target, now) {
		return true
	}
	// Inboxes need no explicit queue: each message independently
	// reaches the user after delivery latency plus read delay.
	delay := n.cfg.DeliveryDelay.Sample(&n.netSrc) + n.cfg.ReadDelay.Sample(&n.pop.userSrc[target])
	if _, err := n.sim.ScheduleArgAfter(delay, n.readH, packArg(target, from, 0)); err != nil {
		return false
	}
	return true
}

// readCap bounds per-phone read events; see Send.
const readCap = 64

// trialKey packs (sender, target, day) into a map key for duplicate
// suppression: 24 bits per phone id (populations up to 16.7M) and 16 bits
// for the day index (horizons up to ~179 years). The key is only ever used
// for set membership, so the packing never influences event order.
func trialKey(from, target PhoneID, now time.Duration) uint64 {
	day := uint64(now/trialPeriod) & 0xffff
	return uint64(from)<<40 | uint64(target)<<16 | day
}

// firstTrial reports whether the copy from sender to target arriving at
// virtual time at is the pair's first on at's day, and records it. It is
// the duplicate-suppression rule of both inbox paths: deliverCopy asks at
// the current time, receiveRemote at an arrival clamped to the barrier
// the clock stands at. So the clock is a lower bound on every time asked
// about from now on, and a key whose day ends before the clock's day can
// never match again. Each time the clock crosses a day boundary those
// keys are deleted, keeping the set to the live days (a remote copy may
// already have recorded the next one). The map keeps its capacity, so the
// following days reuse its buckets.
func (n *Network) firstTrial(from, target PhoneID, at time.Duration) bool {
	if now := n.sim.Now(); now >= n.trialsUntil {
		n.expireTrials(now)
	}
	key := trialKey(from, target, at)
	if _, dup := n.trials[key]; dup {
		return false
	}
	n.trials[key] = struct{}{}
	return true
}

// expireTrials deletes the trial keys of the days before now's and moves
// trialsUntil to the next day boundary.
func (n *Network) expireTrials(now time.Duration) {
	day := now / trialPeriod
	n.trialsUntil = (day + 1) * trialPeriod
	live := uint64(day) & 0xffff
	for key := range n.trials {
		if key&0xffff < live {
			delete(n.trials, key)
		}
	}
}

// read models the user noticing the message and deciding about the
// attachment with probability AF/2^n.
func (n *Network) read(id, from PhoneID) {
	// A powered-off phone holds the message in its inbox; the user notices
	// it once the phone is back on (churn pauses receive activity).
	if n.phoneOff(id) {
		n.metrics.ReadsHeld++
		if _, err := n.sim.ScheduleArgAt(n.churnOn[id], n.readH, packArg(id, from, 0)); err != nil {
			return
		}
		return
	}
	n.pop.received[id]++
	n.metrics.Reads++
	prob := AcceptanceProbability(n.cfg.AcceptanceFactor, int(n.pop.received[id]))
	if !n.pop.userSrc[id].Bool(prob) {
		return
	}
	n.metrics.Acceptances++
	if n.pop.vulnerable(id) {
		n.pop.infector[id] = from
		n.infect(id)
	}
}

// Infector returns who infected phone id (NoInfector for seeds or phones
// never infected).
func (n *Network) Infector(id PhoneID) PhoneID {
	if !n.pop.valid(id) {
		return NoInfector
	}
	return n.pop.infector[id]
}

// InfectionTree summarizes the who-infected-whom tree of a run.
type InfectionTree struct {
	// Seeds are the phones infected without a parent.
	Seeds []PhoneID
	// Children maps each infector to the phones it infected.
	Children map[PhoneID][]PhoneID
	// MaxDepth is the longest transmission chain (seeds are depth 0).
	MaxDepth int
	// MeanOffspring is the mean number of secondary infections caused by
	// phones that completed their campaigns (an empirical R0 proxy).
	MeanOffspring float64
}

// BuildInfectionTree assembles the transmission tree at the current time.
// The tree spans the whole population (the infector array is shared), so in
// a sharded run any shard's network builds the same global tree.
func (n *Network) BuildInfectionTree() InfectionTree {
	tree := InfectionTree{Children: make(map[PhoneID][]PhoneID)}
	depth := make(map[PhoneID]int)
	infectedCount := 0
	for i := range n.pop.state {
		if n.pop.state[i] != StateInfected {
			continue
		}
		infectedCount++
		id := PhoneID(i)
		parent := n.pop.infector[i]
		if parent == NoInfector {
			tree.Seeds = append(tree.Seeds, id)
		} else {
			tree.Children[parent] = append(tree.Children[parent], id)
		}
	}
	// Depths via repeated relaxation (trees are shallow; infection order
	// guarantees parents are infected before children, but ids are not
	// ordered, so walk from seeds).
	queue := append([]PhoneID(nil), tree.Seeds...)
	for _, s := range tree.Seeds {
		depth[s] = 0
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, c := range tree.Children[u] {
			depth[c] = depth[u] + 1
			if depth[c] > tree.MaxDepth {
				tree.MaxDepth = depth[c]
			}
			queue = append(queue, c)
		}
	}
	if infectedCount > 0 {
		secondary := 0
		for _, kids := range tree.Children {
			secondary += len(kids)
		}
		tree.MeanOffspring = float64(secondary) / float64(infectedCount)
	}
	return tree
}
