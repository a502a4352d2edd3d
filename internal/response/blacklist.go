package response

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/mms"
	"repro/internal/rng"
)

// Blacklist is the blacklisting mechanism: the provider counts suspected
// infected *messages* per phone (a multi-recipient message counts once, and
// messages to invalid numbers count — which is why it bites hardest on the
// random-dialing Virus 3); when a phone reaches the threshold, all its
// outgoing MMS service is stopped until the phone is proven clean (beyond
// the simulated horizon, as in the paper).
type Blacklist struct {
	// Threshold is the number of suspected infected messages after which a
	// phone is blacklisted (paper: 10, 20, 30, or 40).
	Threshold int

	counts      map[mms.PhoneID]int
	blacklisted map[mms.PhoneID]bool

	// Attach installs one sub-blacklist per shard counting that shard's
	// senders (an exact partition — every send is controlled on its
	// sender's shard), with this instance serving as the merged view.
	set  *mms.ShardSet
	subs []*Blacklist
}

var (
	_ mms.Response       = (*Blacklist)(nil)
	_ mms.SendController = (*Blacklist)(nil)
)

// NewBlacklist returns a factory for blacklisting at the given threshold.
func NewBlacklist(threshold int) mms.ResponseFactory {
	return func() mms.Response {
		return &Blacklist{Threshold: threshold}
	}
}

// Name implements mms.Response.
func (b *Blacklist) Name() string {
	return fmt.Sprintf("blacklist(threshold=%d)", b.Threshold)
}

// Attach implements mms.Response: one sub-blacklist per shard, installed
// as that shard's send controller.
func (b *Blacklist) Attach(ss *mms.ShardSet, _ *rng.Source) error {
	if b.Threshold < 1 {
		return fmt.Errorf("response: blacklist threshold must be at least 1")
	}
	b.set = ss
	b.subs = make([]*Blacklist, len(ss.Shards()))
	for s, n := range ss.Shards() {
		sub := &Blacklist{
			Threshold:   b.Threshold,
			counts:      make(map[mms.PhoneID]int),
			blacklisted: make(map[mms.PhoneID]bool),
		}
		n.AddController(sub)
		b.subs[s] = sub
	}
	return nil
}

// OnSendAttempt implements mms.SendController.
func (b *Blacklist) OnSendAttempt(p mms.PhoneID, _ time.Duration) mms.SendVerdict {
	if b.blacklisted[p] {
		return mms.SendVerdict{Action: mms.ActionBlock}
	}
	return mms.SendVerdict{Action: mms.ActionAllow}
}

// OnSent implements mms.SendController: count the suspected infected
// message and blacklist the phone at the threshold.
func (b *Blacklist) OnSent(p mms.PhoneID, _ time.Duration, _ int) {
	b.counts[p]++
	if b.counts[p] >= b.Threshold {
		b.blacklisted[p] = true
	}
}

// Blacklisted reports whether phone p has been cut off.
func (b *Blacklist) Blacklisted(p mms.PhoneID) bool {
	return b.subs[b.set.ShardOf(p)].blacklisted[p]
}

// BlacklistedPhones returns the phones currently cut off, in ascending ID
// order — the provider's merged blacklist. The per-shard views concatenate
// in shard order, which is id order because shards own contiguous ranges.
func (b *Blacklist) BlacklistedPhones() []mms.PhoneID {
	var out []mms.PhoneID
	for _, sub := range b.subs {
		out = append(out, sub.ownBlacklisted()...)
	}
	return out
}

// ownBlacklisted returns a sub-blacklist's phones in ascending ID order.
func (b *Blacklist) ownBlacklisted() []mms.PhoneID {
	out := make([]mms.PhoneID, 0, len(b.blacklisted))
	for p, cut := range b.blacklisted {
		if cut {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Descriptor implements mms.ResponseDescriber: blacklisting is fully
// determined by its activation threshold.
func (b *Blacklist) Descriptor() string {
	return "blacklist|threshold=" + strconv.Itoa(b.Threshold)
}

var _ mms.ResponseDescriber = (*Blacklist)(nil)
