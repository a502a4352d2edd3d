package mms

import "math/bits"

// trialSet is the duplicate-suppression set: the trialKey of every consent
// trial already granted on the days later copies can still reach (see
// Network.firstTrial). Almost every delivered copy asks it one question,
// so it is a flat open-addressing table rather than a map: linear probing
// from a multiplicative hash, each slot holding key+1 so that 0 marks an
// empty slot, and at most half the slots occupied. A key is never all
// ones, since that would need a sender equal to its target, so key+1 never
// wraps to 0.
//
// The table only grows, by doubling, and the day rollover drops expired
// keys in place, so once a replication's busiest day has sized it the set
// allocates nothing more.
type trialSet struct {
	slots []uint64 // key+1 per slot, 0 when empty; len is a power of two
	shift uint     // 64 - log2(len(slots)): home keeps the product's top bits
	n     int      // occupied slots
}

// minTrialSlots is the table size of the first insert.
const minTrialSlots = 64

// home returns the slot where stored value k's probe sequence starts.
func (t *trialSet) home(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> t.shift)
}

// add records key and reports whether it was absent.
func (t *trialSet) add(key uint64) bool {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	k, mask := key+1, len(t.slots)-1
	i := t.home(k)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if t.slots[i] == k {
			return false
		}
	}
	t.slots[i] = k
	t.n++
	return true
}

// grow doubles the table and reinserts every key.
func (t *trialSet) grow() {
	old := t.slots
	size := max(2*len(old), minTrialSlots)
	//mvlint:allow hotpath — amortized doubling: the table never shrinks, so it allocates only until a replication's busiest day has sized it
	t.slots = make([]uint64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := t.home(k)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = k
	}
}

// expire deletes every key whose day index is below live, in place.
// Linear probing cannot just empty a slot, since a later key of the same
// run may have probed past it, so each deletion shifts such keys back into
// the hole (backward-shift deletion). The scan starts just past an empty
// slot, so no run wraps around the scan's start and a key moved back into
// an unscanned slot is still examined.
func (t *trialSet) expire(live uint64) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	start := 0
	for t.slots[start] != 0 {
		start++
	}
	for step := 1; step <= mask+1; {
		i := (start + step) & mask
		k := t.slots[i]
		if k == 0 || (k-1)&0xffff >= live {
			step++
			continue
		}
		// Slot i now holds the next key of its run, or is empty: look again.
		t.deleteAt(i)
		t.n--
	}
}

// deleteAt empties slot i, shifting back every later key of its run whose
// probe sequence passes the hole.
func (t *trialSet) deleteAt(i int) {
	mask := len(t.slots) - 1
	hole := i
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The key at j may fill the hole unless its home lies in (hole, j].
		if (j-t.home(t.slots[j]))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = 0
}
