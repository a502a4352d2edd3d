package response

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/rng"
)

// waveSet builds an idle set of shards shards over phones phones, all
// vulnerable, with an Immunizer attached whose deployment window is one
// hour. Detection never fires on an idle set, so callers draw the wave
// themselves.
func waveSet(tb testing.TB, phones, shards int) (*mms.ShardSet, *Immunizer) {
	tb.Helper()
	root := rng.New(1)
	topo, err := graph.BarabasiAlbertCSR(phones, 4, root.Stream(1))
	if err != nil {
		tb.Fatal(err)
	}
	vulnerable := make([]bool, phones)
	for i := range vulnerable {
		vulnerable[i] = true
	}
	src := root.Stream(3)
	pop, err := mms.NewPopulation(vulnerable, src)
	if err != nil {
		tb.Fatal(err)
	}
	ss, err := mms.NewShardSet(topo, pop, mms.DefaultConfig(), shards, time.Hour, src)
	if err != nil {
		tb.Fatal(err)
	}
	im := &Immunizer{DeploymentWindow: time.Hour}
	if err := ss.AttachResponse(im, root.Stream(4)); err != nil {
		tb.Fatal(err)
	}
	return ss, im
}

func pending(ss *mms.ShardSet) int {
	p := 0
	for _, n := range ss.Shards() {
		p += n.Sim().Pending()
	}
	return p
}

// TestSortWaveMatchesComparisonSort checks the radix sort against a
// comparison sort by (install time, id) on waves drawn in id order: spans
// needing one to six passes, with install times drawn from a few values
// so ties are common, and from a wide range so they are rare.
func TestSortWaveMatchesComparisonSort(t *testing.T) {
	src := rng.New(7)
	for _, span := range []time.Duration{0, 1000, time.Hour, 1 << 62} {
		for _, distinct := range []int{3, 1 << 20} {
			entries := make([]patchEntry, 5000)
			for i := range entries {
				step := span / time.Duration(distinct)
				entries[i] = patchEntry{at: time.Hour + step*time.Duration(src.Intn(distinct)), id: mms.PhoneID(2 * i)}
			}
			want := slices.Clone(entries)
			slices.SortFunc(want, func(a, b patchEntry) int {
				if c := cmp.Compare(a.at, b.at); c != 0 {
					return c
				}
				return cmp.Compare(a.id, b.id)
			})
			sortWave(entries, make([]patchEntry, len(entries)))
			if !slices.Equal(entries, want) {
				t.Errorf("span %v, %d distinct times: radix order differs from (at, id) order", span, distinct)
			}
		}
	}
}

// TestImmunizerReleaseAllocationFree pins the patch release at zero
// allocations per patch: once the shard queues have grown to hold a wave,
// a barrier whose per-shard hooks sort and schedule a whole drawn wave
// allocates nothing.
func TestImmunizerReleaseAllocationFree(t *testing.T) {
	const phones = 10_000
	ss, im := waveSet(t, phones, 8)
	src := rng.New(2)
	var barrier time.Duration
	im.draw(ss, src, 0)
	// The first barrier grows the queues to hold the wave.
	ss.RunWindow(barrier, barrier+im.DeploymentWindow)
	scratch := make([]patchEntry, phones)
	// RunWindow runs the shards' hooks one after another, so they can share
	// one scratch buffer.
	op := func() {
		for s := range im.shards {
			w := &im.shards[s]
			w.next, w.scratch = 0, scratch[:len(w.entries)]
		}
		barrier += 2 * im.DeploymentWindow
		ss.RunWindow(barrier, barrier+im.DeploymentWindow)
	}
	if allocs := testing.AllocsPerRun(20, op); allocs != 0 {
		t.Fatalf("releasing a %d-patch wave allocated %.0f times per barrier, want 0", phones, allocs)
	}
	if p := pending(ss); p != phones {
		t.Errorf("barrier released %d patches, want %d", p, phones)
	}
	if p := ss.Metrics().Patched; p != phones {
		t.Errorf("%d phones patched, want %d", p, phones)
	}
}

// BenchmarkImmunizerWave times one deployment wave at 10^5 phones over 8
// shards: the serial draw, then a barrier whose per-shard hooks sort and
// release the whole wave (run inline, as RunWindow does). Firing the
// patches, the event queue's work, is left out of the timing.
func BenchmarkImmunizerWave(b *testing.B) {
	const phones = 100_000
	ss, im := waveSet(b, phones, 8)
	src := rng.New(2)
	var barrier time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		barrier += 2 * im.DeploymentWindow
		im.draw(ss, src, barrier)
		ss.RunWindow(barrier, barrier+im.DeploymentWindow)
		b.StopTimer()
		if p := pending(ss); p != phones {
			b.Fatalf("barrier released %d patches, want %d", p, phones)
		}
		for _, n := range ss.Shards() {
			n.Sim().RunUntil(barrier + im.DeploymentWindow)
		}
		b.StartTimer()
	}
}
