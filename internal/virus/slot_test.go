package virus

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
)

// slots counts the phones of e that have a sender.
func slots(e *Engine) int {
	n := 0
	for _, k := range e.slot {
		if k != 0 {
			n++
		}
	}
	return n
}

func TestSenderOnlyForInfectedPhones(t *testing.T) {
	t.Parallel()

	net, sim := completeNet(t, 40, fastNetConfig(), 40)
	eng, err := Attach(Virus3(), net, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.states) != 0 || slots(eng) != 0 {
		t.Fatalf("fresh engine holds %d senders in %d slots, want none", len(eng.states), slots(eng))
	}
	if err := net.SeedInfection(0); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(48 * time.Hour)
	infected := net.InfectedCount()
	if infected < 2 || infected == net.N() {
		t.Fatalf("%d of %d phones infected, want an outbreak that spares some", infected, net.N())
	}
	for id := 0; id < net.N(); id++ {
		has := eng.slot[id] != 0
		if inf := net.State(mms.PhoneID(id)) == mms.StateInfected; has != inf {
			t.Errorf("phone %d: has sender %v, infected %v", id, has, inf)
		}
	}
	act := eng.Stats().Activations
	if n := slots(eng); uint64(n) != act || len(eng.states) != n {
		t.Errorf("%d slots, %d senders, %d activations; want all equal", n, len(eng.states), act)
	}
}

func TestPatchedPhoneGetsNoSender(t *testing.T) {
	t.Parallel()

	net, _ := completeNet(t, 5, fastNetConfig(), 42)
	eng, err := Attach(Virus3(), net, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Patch(2); err != nil {
		t.Fatal(err)
	}
	eng.activate(2)
	if eng.slot[2] != 0 || len(eng.states) != 0 || eng.Active(2) {
		t.Errorf("patched phone got a sender: slot %d, %d senders", eng.slot[2], len(eng.states))
	}
	if act := eng.Stats().Activations; act != 0 {
		t.Errorf("%d activations, want 0", act)
	}
}

func TestDeactivateWithoutSenderIsNoOp(t *testing.T) {
	t.Parallel()

	net, _ := completeNet(t, 5, fastNetConfig(), 44)
	eng, err := Attach(Virus3(), net, rng.New(45))
	if err != nil {
		t.Fatal(err)
	}
	eng.deactivate(3)
	if err := net.Patch(4); err != nil { // fires deactivate through the listener
		t.Fatal(err)
	}
	if slots(eng) != 0 || len(eng.states) != 0 {
		t.Errorf("deactivate allocated: %d slots, %d senders", slots(eng), len(eng.states))
	}
	if eng.Active(3) || eng.Active(4) {
		t.Error("phone without a sender reports active")
	}
}

// TestSenderStreamsShardInvariant activates the same phones in different
// orders on a one-shard engine and on four shard engines of the same seed:
// each phone's sender must draw the same numbers on both.
func TestSenderStreamsShardInvariant(t *testing.T) {
	t.Parallel()

	const phones = 200
	topo, err := graph.BarabasiAlbertCSR(phones, 3, rng.New(46))
	if err != nil {
		t.Fatal(err)
	}
	vuln := make([]bool, phones)
	for i := range vuln {
		vuln[i] = true
	}
	engines := func(shards int) []*Engine {
		src := rng.New(47)
		pop, err := mms.NewPopulation(vuln, src)
		if err != nil {
			t.Fatal(err)
		}
		set, err := mms.NewShardSet(topo, pop, fastNetConfig(), shards, time.Minute, src)
		if err != nil {
			t.Fatal(err)
		}
		var out []*Engine
		for _, net := range set.Shards() {
			eng, err := Attach(Virus3(), net, rng.New(48))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, eng)
		}
		return out
	}
	owner := func(engs []*Engine, id mms.PhoneID) *Engine {
		for _, e := range engs {
			if e.net.Owns(id) {
				return e
			}
		}
		t.Fatalf("no engine owns phone %d", id)
		return nil
	}
	ids := []mms.PhoneID{0, 3, 49, 50, 77, 120, 151, 199}
	one, four := engines(1), engines(4)
	for i := range ids {
		owner(one, ids[i]).activate(ids[i])
		rev := ids[len(ids)-1-i]
		owner(four, rev).activate(rev)
	}
	for _, id := range ids {
		a, b := owner(one, id).state(id), owner(four, id).state(id)
		if a == nil || b == nil {
			t.Fatalf("phone %d: no sender after activation", id)
		}
		if a.cursor != b.cursor {
			t.Errorf("phone %d: contact cursor %d on one shard, %d on four", id, a.cursor, b.cursor)
		}
		sa, sb := a.src, b.src
		for d := 0; d < 4; d++ {
			if x, y := sa.Uint64(), sb.Uint64(); x != y {
				t.Errorf("phone %d draw %d: %#x on one shard, %#x on four", id, d, x, y)
			}
		}
	}
}

// BenchmarkAttach100k is engine construction on a 10^5-phone network. Each
// iteration registers two more listeners on the shared network; they never
// fire here.
func BenchmarkAttach100k(b *testing.B) {
	const phones = 100_000
	topo, err := graph.BarabasiAlbertCSR(phones, 4, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	vuln := make([]bool, phones)
	for i := range vuln {
		vuln[i] = true
	}
	src := rng.New(2)
	pop, err := mms.NewPopulation(vuln, src)
	if err != nil {
		b.Fatal(err)
	}
	set, err := mms.NewShardSet(topo, pop, fastNetConfig(), 1, time.Minute, src)
	if err != nil {
		b.Fatal(err)
	}
	net, src := set.Shards()[0], rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Attach(Virus3(), net, src); err != nil {
			b.Fatal(err)
		}
	}
}
