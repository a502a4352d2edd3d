package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0}, // overlaps a: counted once
		{Name: "c", Start: ms(60), End: ms(70), Parent: 0},
		{Name: "d", Start: ms(90), End: ms(120), Parent: 0}, // clipped to the parent
		{Name: "grandchild", Start: ms(75), End: ms(85), Parent: 3},
	}
	// Covered: [10,50] + [60,70] + [90,100] = 60 ms.
	if got, want := selfTime(spans, 0), ms(40); got != want {
		t.Errorf("selfTime(parent) = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 1), ms(20); got != want {
		t.Errorf("selfTime(leaf) = %v, want %v", got, want)
	}
	if got, want := sumSelf(spans, "parent"), ms(40); got != want {
		t.Errorf("sumSelf = %v, want %v", got, want)
	}
}

func TestPhaseIdleIsTheShardWait(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: ms(300), Parent: -1},
		{Name: "shard.phase", Start: 0, End: ms(100), Parent: 0},
		{Name: "shard.worker", Start: 0, End: ms(100), Parent: 1},
		{Name: "shard.worker", Start: 0, End: ms(60), Parent: 1},
		{Name: "shard.barrier", Start: ms(100), End: ms(200), Parent: 0},
		{Name: "shard.phase", Start: ms(200), End: ms(250), Parent: 0},
		{Name: "shard.worker", Start: ms(200), End: ms(250), Parent: 5},
		{Name: "shard.worker", Start: ms(200), End: ms(210), Parent: 5},
		{Name: "shard.barrier", Start: ms(250), End: ms(300), Parent: 0},
	}
	// Window 1: 2×100 − 160 = 40; window 2: 2×50 − 60 = 40.
	if got, want := phaseIdle(spans, "shard.phase", "shard.worker", 2), ms(80); got != want {
		t.Errorf("wait = %v, want %v", got, want)
	}
	// Barrier 150 ms of a 300 ms run.
	if got := serialFrac(spans); got != 0.5 {
		t.Errorf("serialFrac = %v, want 0.5", got)
	}
	// Pool idle over the whole run: 2×300 − (100+60+50+10).
	if got, want := poolIdle(spans, 2, "shard.worker"), ms(380); got != want {
		t.Errorf("poolIdle = %v, want %v", got, want)
	}
}

func TestPoolIdleCountsTheTail(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: ms(1000), Parent: -1},
		{Name: "store.get_or_compute", Start: 0, End: ms(900), Parent: 0},
		{Name: "core.replication", Start: ms(100), End: ms(850), Parent: 1},
		{Name: "store.get_or_compute", Start: 0, End: ms(1000), Parent: 0},
		{Name: "store.put", Start: ms(900), End: ms(950), Parent: 0},
	}
	// 2×1000 − (900 + 1000 + 50): one worker idled through the last 100 ms
	// minus the 50 ms put.
	if got, want := poolIdle(spans, 2, "store.get_or_compute", "store.get", "store.put"), ms(50); got != want {
		t.Errorf("poolIdle = %v, want %v", got, want)
	}
	// Store overhead: the get_or_compute self times (150 + 1000).
	if got, want := sumSelf(spans, "store.get_or_compute"), ms(1150); got != want {
		t.Errorf("store self time = %v, want %v", got, want)
	}
	if got := serialFrac(spans); got != 0 {
		t.Errorf("serialFrac without barriers = %v, want 0", got)
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		name   string
		deltas [][]uint64
		want   float64
	}{
		{"balanced", [][]uint64{{5, 5, 5}, {1, 1, 1}}, 1},
		// Σmax = 10+30, Σmean = 10+20; the empty window does not count.
		{"skewed", [][]uint64{{10, 10}, {30, 10}, {0, 0}}, 40.0 / 30.0},
		{"idle", [][]uint64{{0, 0}}, 0},
		{"none", nil, 0},
	}
	for _, c := range cases {
		if got := imbalance(c.deltas); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: imbalance = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesMatchBenchmarkJSON pins the emitted metric names and units
// to the benchmark definition, in both directions.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit string
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []def, emitted []metricDef) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		got := map[string]string{}
		for _, d := range emitted {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s metric %q is not a valid name", kind, d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s metric %q has invalid unit %q", kind, d.name, d.unit)
			}
			if _, dup := got[d.name]; dup {
				t.Errorf("%s metric %q emitted twice", kind, d.name)
			}
			got[d.name] = d.unit
		}
		for n, u := range want {
			if gu, ok := got[n]; !ok {
				t.Errorf("%s metric %q is in BENCHMARK.json but never emitted", kind, n)
			} else if gu != u {
				t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, n, gu, u)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("%s metric %q is emitted but not in BENCHMARK.json", kind, n)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)

	names := map[string]bool{}
	for _, w := range workloads {
		names[w.name] = true
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if !names[w.Name] {
			t.Errorf("workload %q in BENCHMARK.json is unknown to the benchmark", w.Name)
		}
	}
}

func TestEmitRejectsMissingAndUndeclared(t *testing.T) {
	full := map[string]float64{}
	for _, d := range endToEnd {
		full[d.name] = 1
	}
	if _, err := emit(endToEnd, full); err != nil {
		t.Fatalf("complete metrics: %v", err)
	}
	delete(full, "setup_s")
	if _, err := emit(endToEnd, full); err == nil {
		t.Error("a missing metric was accepted")
	}
	full["setup_s"] = 1
	full["latency_ms"] = 1
	if _, err := emit(endToEnd, full); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

// TestTracedDriverMatchesShardSetRun runs a small version of both scale
// workloads untraced and on the traced driver, at two seeds, and requires
// identical exact counts and no failed invariant.
func TestTracedDriverMatchesShardSetRun(t *testing.T) {
	for _, responses := range []bool{false, true} {
		sp := scaleSpec{phones: 20_000, shards: 8, responses: responses}
		cfg := scaleConfig(sp)
		for _, seed := range []uint64{1, 2} {
			plain, err := untracedScale(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			traced, st, err := tracedScale(rec, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if probs := scaleProblems(sp, cfg, seed, plain, nil); len(probs) > 0 {
				t.Errorf("responses=%v seed %d untraced: %v", responses, seed, probs)
			}
			ref := plain.counts
			if probs := scaleProblems(sp, cfg, seed, traced, &ref); len(probs) > 0 {
				t.Errorf("responses=%v seed %d traced: %v", responses, seed, probs)
			}
			windows := int(cfg.Horizon / cfg.ShardWindow)
			if len(st.deltas) != windows {
				t.Errorf("traced driver ran %d windows, want %d", len(st.deltas), windows)
			}
			var fired uint64
			for _, w := range st.deltas {
				for _, d := range w {
					fired += d
				}
			}
			if fired != traced.counts.events {
				t.Errorf("per-window deltas sum to %d events, the shards fired %d", fired, traced.counts.events)
			}
			spans := rec.snapshot()
			if n := len(durationsMs(spans, "shard.compute")); n != windows*sp.shards {
				t.Errorf("%d shard.compute spans, want %d", n, windows*sp.shards)
			}
			if n := len(durationsMs(spans, "graph.build")); n != 1 {
				t.Errorf("%d graph.build spans, want 1", n)
			}
		}
	}
}
