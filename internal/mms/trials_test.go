package mms

import (
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
)

// keys returns the set's keys in table order.
func (t *trialSet) keys() []uint64 {
	var out []uint64
	for _, k := range t.slots {
		if k != 0 {
			out = append(out, k-1)
		}
	}
	return out
}

// TestTrialSetMatchesMap drives the set and a map reference through the
// same random (sender, target, day) adds and day rollovers, and requires
// the same answer to every add and the same keys after every rollover.
// Senders and targets come from a narrow range, so duplicates are common
// and probe runs long, plus a few ids at the 24-bit ceiling.
func TestTrialSetMatchesMap(t *testing.T) {
	t.Parallel()

	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed)
		var set trialSet
		ref := map[uint64]struct{}{}
		id := func() PhoneID {
			if src.Intn(50) == 0 {
				return PhoneID(argIDMask - src.Intn(4))
			}
			return PhoneID(src.Intn(40))
		}
		day := time.Duration(0)
		for op := 0; op < 20000; op++ {
			if src.Intn(500) == 0 {
				day += time.Duration(1+src.Intn(2)) * trialPeriod
				live := uint64(day/trialPeriod) & 0xffff
				set.expire(live)
				for key := range ref {
					if key&0xffff < live {
						delete(ref, key)
					}
				}
				got, want := set.keys(), make([]uint64, 0, len(ref))
				for key := range ref {
					want = append(want, key)
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: after expiring days below %d the set holds %d keys, the map %d", seed, op, live, len(got), len(want))
				}
				continue
			}
			// Mostly today, sometimes a copy arriving tomorrow or later.
			at := day + time.Duration(src.Intn(int(trialPeriod/time.Minute)))*time.Minute
			if src.Intn(10) == 0 {
				at += time.Duration(1+src.Intn(2)) * trialPeriod
			}
			from, target := id(), id()
			if from == target {
				continue
			}
			key := trialKey(from, target, at)
			_, dup := ref[key]
			ref[key] = struct{}{}
			if got := set.add(key); got == dup {
				t.Fatalf("seed %d op %d: add(%#x) = %v, map says first = %v", seed, op, key, got, !dup)
			}
			if set.n != len(ref) || 2*set.n > len(set.slots) {
				t.Fatalf("seed %d op %d: %d keys in %d slots, map holds %d", seed, op, set.n, len(set.slots), len(ref))
			}
		}
	}
}

// TestTrialSetCycleAllocationFree pins the set's steady state at zero
// allocations: once a day's worth of keys has sized the table, a day of
// adds (half of them duplicates) and the rollover that expires it reuse
// the table.
func TestTrialSetCycleAllocationFree(t *testing.T) {
	var set trialSet
	day := uint64(0)
	cycle := func() {
		for i := 0; i < 2000; i++ {
			k := uint64(i % 1000)
			set.add(k<<40 | k%7<<16 | day)
		}
		day++
		set.expire(day)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a warmed trial set's add-and-expire cycle allocates %.1f times, want 0", allocs)
	}
	if set.n != 0 {
		t.Errorf("%d keys survive the rollover, want 0", set.n)
	}
}
