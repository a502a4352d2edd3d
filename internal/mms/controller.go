package mms

import "time"

// SendAction is a send controller's decision on an outgoing message attempt.
type SendAction uint8

// Send actions.
const (
	// ActionAllow lets the message proceed.
	ActionAllow SendAction = iota + 1
	// ActionDefer refuses the attempt but allows a retry at RetryAt;
	// the monitoring response mechanism's forced wait produces this.
	ActionDefer
	// ActionBlock permanently stops outgoing MMS service for the phone;
	// the blacklist response mechanism produces this.
	ActionBlock
)

// SendVerdict is the combined decision of the send controllers.
type SendVerdict struct {
	Action  SendAction
	RetryAt time.Duration // meaningful for ActionDefer
}

// SendController is a provider-side mechanism observing and constraining
// outgoing MMS traffic per phone (the paper's point-of-dissemination
// responses: monitoring and blacklisting).
type SendController interface {
	// Name identifies the controller in reports.
	Name() string
	// OnSendAttempt is consulted before phone p sends a message at now.
	OnSendAttempt(p PhoneID, now time.Duration) SendVerdict
	// OnSent observes a message actually accepted for transit.
	OnSent(p PhoneID, now time.Duration, recipientCount int)
}

// LegitTrafficObserver is implemented by controllers that count *all*
// outgoing MMS, legitimate or infected — the paper's monitoring mechanism
// counts total volume, while blacklisting counts only suspected infected
// messages. Controllers implementing this interface receive the network's
// background legitimate traffic (Config.LegitSendInterval) and can
// therefore produce false positives.
type LegitTrafficObserver interface {
	// OnLegitSent observes one legitimate outgoing message.
	OnLegitSent(p PhoneID, now time.Duration)
}

// SendOutcome reports what happened to a Send call.
type SendOutcome uint8

// Send outcomes.
const (
	// OutcomeSent means the message entered the network (it may still have
	// been dropped by a gateway filter; see SendResult.GatewayDropped).
	OutcomeSent SendOutcome = iota + 1
	// OutcomeDeferred means a controller postponed the attempt.
	OutcomeDeferred
	// OutcomeBlocked means a controller permanently blocked the sender.
	OutcomeBlocked
)

// SendResult describes the fate of one Send call.
type SendResult struct {
	Outcome SendOutcome
	// RetryAt is when a deferred sender may retry.
	RetryAt time.Duration
	// GatewayDropped reports that gateway filters discarded every valid
	// recipient copy of the message.
	GatewayDropped bool
	// Delivered is the number of recipients the message was scheduled for
	// delivery to (valid targets of a message that passed the gateway).
	// Copies recovered later by the fault-injection retry policy are not
	// counted here.
	Delivered int
	// Queued reports that an infrastructure fault window held the message
	// in the MMSC store-and-forward queue; it will transit — and its
	// delivery fate be decided — when the window closes.
	Queued bool
}

// FilterVerdict is a gateway filter's decision on one MMS message.
type FilterVerdict uint8

// Filter verdicts.
const (
	// VerdictDeliver lets the message proceed to its recipients.
	VerdictDeliver FilterVerdict = iota + 1
	// VerdictDrop discards the message (all recipients).
	VerdictDrop
)

// Filter inspects an infected MMS in transit through the provider's MMS
// gateway. The gateway virus scan and the gateway detection algorithm of the
// paper are Filters. The gateway fans a multi-recipient message out into one
// copy per recipient, and filters inspect each copy independently — so a
// probabilistic detector catches some copies of a message and misses others,
// exactly as per-delivery scanning hardware would.
type Filter interface {
	// Name identifies the filter in reports.
	Name() string
	// Inspect decides the fate of one recipient copy of a message sent by
	// from (addressed to recipientCount phones in total) at the given time.
	Inspect(from PhoneID, recipientCount int, now time.Duration) FilterVerdict
}
