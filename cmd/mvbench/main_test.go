package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// report returns a minimal two-entry report for gate tests.
func report(ns float64, allocs int64, headline float64) Report {
	return Report{
		Schema: schemaVersion,
		Label:  "test",
		Count:  1,
		Results: []Result{
			{Name: "des/x", NsPerOp: ns, AllocsPerOp: allocs},
			{Name: "figure/x", NsPerOp: 100, AllocsPerOp: 5,
				Headline: map[string]float64{"final-infected": headline}},
		},
	}
}

func TestCompareCleanPass(t *testing.T) {
	t.Parallel()

	old := report(1000, 3, 250)
	fresh := report(1100, 3, 250) // +10% < 15% threshold
	if problems := compare(old, fresh, 0.15, 1e-6, nil); len(problems) != 0 {
		t.Errorf("gate failed on an in-threshold run: %v", problems)
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	t.Parallel()

	old := report(1000, 3, 250)
	fresh := report(1200, 3, 250) // +20% > 15%
	problems := compare(old, fresh, 0.15, 1e-6, nil)
	if len(problems) != 1 || !strings.Contains(problems[0], "ns/op regressed") {
		t.Errorf("want one ns/op regression, got %v", problems)
	}
}

func TestCompareFlagsAnyAllocRegression(t *testing.T) {
	t.Parallel()

	old := report(1000, 0, 250)
	fresh := report(1000, 1, 250) // zero-alloc baselines get zero slack
	problems := compare(old, fresh, 0.15, 1e-6, nil)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op regressed") {
		t.Errorf("want one allocs/op regression, got %v", problems)
	}
}

func TestCompareAllocSlackOnLargeCounts(t *testing.T) {
	t.Parallel()

	// Multi-million-alloc figure runs jitter by runtime-internal
	// allocations; 0.1% slack absorbs that without loosening the
	// zero-alloc entries.
	old := report(1000, 2_847_096, 250)
	within := report(1000, 2_847_100, 250)
	if problems := compare(old, within, 0.15, 1e-6, nil); len(problems) != 0 {
		t.Errorf("gate failed on in-slack alloc jitter: %v", problems)
	}
	beyond := report(1000, 2_852_000, 250) // +0.17%
	problems := compare(old, beyond, 0.15, 1e-6, nil)
	if len(problems) != 1 || !strings.Contains(problems[0], "allocs/op regressed") {
		t.Errorf("want one allocs/op regression past slack, got %v", problems)
	}
}

func TestCompareAllowsImprovement(t *testing.T) {
	t.Parallel()

	old := report(1000, 3, 250)
	fresh := report(500, 0, 250)
	if problems := compare(old, fresh, 0.15, 1e-6, nil); len(problems) != 0 {
		t.Errorf("gate failed on a strict improvement: %v", problems)
	}
}

func TestCompareFlagsHeadlineDrift(t *testing.T) {
	t.Parallel()

	old := report(1000, 3, 250)
	fresh := report(1000, 3, 260) // simulator behavior changed
	problems := compare(old, fresh, 0.15, 1e-6, nil)
	if len(problems) != 1 || !strings.Contains(problems[0], "correctness sanity") {
		t.Errorf("want one headline drift finding, got %v", problems)
	}
}

func TestCompareFlagsMissingBenchmark(t *testing.T) {
	t.Parallel()

	old := report(1000, 3, 250)
	fresh := Report{Schema: schemaVersion, Results: []Result{{Name: "des/x", NsPerOp: 1000, AllocsPerOp: 3}}}
	problems := compare(old, fresh, 0.15, 1e-6, nil)
	if len(problems) != 1 || !strings.Contains(problems[0], "not in fresh run") {
		t.Errorf("want one missing-benchmark finding, got %v", problems)
	}
}

func TestReportRoundTrip(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	rep := report(1234, 2, 321)
	path, err := writeReport(rep, dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_test.json" {
		t.Errorf("report written to %s, want BENCH_test.json", path)
	}
	back, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if problems := compare(rep, back, 0, 0, nil); len(problems) != 0 {
		t.Errorf("round trip is not self-identical: %v", problems)
	}
}

func TestLoadReportRejectsWrongSchema(t *testing.T) {
	t.Parallel()

	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil {
		t.Error("wrong-schema baseline accepted")
	}
}

// TestToResultSplitsMetrics checks the events metric is separated from
// headline metrics and events/sec is derived.
func TestToResultSplitsMetrics(t *testing.T) {
	t.Parallel()

	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		b.ReportMetric(10, eventsMetric)
		b.ReportMetric(99, "final-infected")
	})
	res := toResult("t", r)
	if res.EventsPerOp != 10 {
		t.Errorf("EventsPerOp = %v, want 10", res.EventsPerOp)
	}
	if res.Headline["final-infected"] != 99 {
		t.Errorf("Headline = %v, want final-infected: 99", res.Headline)
	}
	if res.EventsPerSec <= 0 {
		t.Error("EventsPerSec not derived")
	}
}

// TestSuitePinned guards the comparison contract: renaming or dropping a
// suite entry silently invalidates every committed baseline, so the names
// are pinned here.
func TestSuitePinned(t *testing.T) {
	t.Parallel()

	want := []struct {
		name, tier string
	}{
		{"des/schedule-fire-1k", tierQuick},
		{"des/self-perpetuating-chain", tierQuick},
		{"des/schedule-cancel", tierQuick},
		{"figure1/reduced", tierQuick},
		{"figures/sweep-reduced", tierQuick},
		{"figures/sweep-distributed", tierQuick},
		{"store/codec-roundtrip", tierQuick},
		{"mvlint/self", tierQuick},
		{"mms/shard-exchange", tierQuick},
		{"core/population-100k", tierScale},
		{"core/population-100k-response", tierScale},
		{"core/population-1m", tierNightly},
		{"core/population-1m-response", tierNightly},
	}
	got := suite()
	if len(got) != len(want) {
		t.Fatalf("suite has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].name != want[i].name || got[i].tier != want[i].tier {
			t.Errorf("suite[%d] = %q/%q, want %q/%q", i, got[i].name, got[i].tier, want[i].name, want[i].tier)
		}
	}
}

// TestCompareSkipsUnselectedBaselineEntries pins the tiered-CI contract: a
// quick-tier invocation must not report the scale or nightly baseline
// entries as missing benchmarks.
func TestCompareSkipsUnselectedBaselineEntries(t *testing.T) {
	t.Parallel()

	old := report(1000, 3, 250)
	fresh := Report{Schema: schemaVersion, Results: []Result{{Name: "des/x", NsPerOp: 1000, AllocsPerOp: 3}}}
	selected := map[string]bool{"des/x": true}
	if problems := compare(old, fresh, 0.15, 1e-6, selected); len(problems) != 0 {
		t.Errorf("selected-set gate flagged an unselected baseline entry: %v", problems)
	}
}

// TestCompareGatesBytesPerPhone pins the capacity gate: bytes/phone uses
// the fractional threshold, not the correctness sanity tolerance.
func TestCompareGatesBytesPerPhone(t *testing.T) {
	t.Parallel()

	mk := func(bpp float64) Report {
		return Report{Schema: schemaVersion, Results: []Result{
			{Name: "core/population-100k", NsPerOp: 1000, AllocsPerOp: 10, BytesPerPhone: bpp},
		}}
	}
	if problems := compare(mk(100), mk(110), 0.15, 1e-6, nil); len(problems) != 0 {
		t.Errorf("gate failed on +10%% bytes/phone under a 15%% threshold: %v", problems)
	}
	problems := compare(mk(100), mk(120), 0.15, 1e-6, nil)
	if len(problems) != 1 || !strings.Contains(problems[0], "bytes/phone regressed") {
		t.Errorf("want one bytes/phone regression, got %v", problems)
	}
}

// TestParseTiers pins the -tier flag grammar.
func TestParseTiers(t *testing.T) {
	t.Parallel()

	tiers, err := parseTiers("quick,scale")
	if err != nil || !tiers[tierQuick] || !tiers[tierScale] || tiers[tierNightly] {
		t.Errorf("parseTiers(quick,scale) = %v, %v", tiers, err)
	}
	if all, err := parseTiers(""); err != nil || all != nil {
		t.Errorf("parseTiers(\"\") = %v, %v, want nil set", all, err)
	}
	if _, err := parseTiers("weekly"); err == nil {
		t.Error("parseTiers accepted an unknown tier")
	}
}

// TestRunBadFlags pins the exit-code contract for usage errors.
func TestRunBadFlags(t *testing.T) {
	if code := run([]string{"-count", "0"}); code != 2 {
		t.Errorf("run with -count 0 returned %d, want 2", code)
	}
	if code := run([]string{"-definitely-not-a-flag"}); code != 2 {
		t.Errorf("run with unknown flag returned %d, want 2", code)
	}
}
