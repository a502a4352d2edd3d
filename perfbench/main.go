// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed wall-clock budget, checks every output it produced,
// and prints the metrics as one JSON object on the last line of standard
// output.
//
// Usage (from the repository root; run.sh builds and execs this program):
//
//	bash perfbench/run.sh --workload paper-figures|scale-outbreak|scale-response \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// tracing. With --trace 1 it alternates untraced and traced iterations and
// reports the per-layer metrics from the traced ones, plus the tracing
// overhead. The spans and the run's environment are written to
// .bench_build/perfbench/runs/. README.md explains the workloads and what
// each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json exactly (pinned by TestMetricNamesMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"phone_hours_per_s", "phone-h/s"},
	{"peak_rss_mb", "MB"},
	{"bytes_per_phone", "B"},
}

var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"graph.powerlaw_s", "s"},
	{"mms.construct_s", "s"},
	{"des.events", "count"},
	{"des.events_per_busy_s", "1/s"},
	{"mms.shard.compute_s", "s"},
	{"mms.shard.busy_s", "s"},
	{"mms.shard.wait_s", "s"},
	{"mms.shard.imbalance", "ratio"},
	{"mms.shard.barrier_s", "s"},
	{"mms.shard.barrier_p50_ms", "ms"},
	{"mms.shard.barrier_max_ms", "ms"},
	{"mms.shard.injected", "count"},
	{"mms.shard.serial_frac", "ratio"},
	{"mms.deliveries", "count"},
	{"mms.reads", "count"},
	{"mms.infections", "count"},
	{"mms.gateway_dropped", "count"},
	{"mms.blocked", "count"},
	{"mms.patched", "count"},
	{"mms.read_yield", "ratio"},
	{"virus.attempted", "count"},
	{"virus.sent", "count"},
	{"virus.send_yield", "ratio"},
	{"core.replication_p50_ms", "ms"},
	{"core.replication_p90_ms", "ms"},
	{"experiment.cache_hits", "count"},
	{"experiment.cache_misses", "count"},
	{"pool.idle_s", "s"},
	{"store.overhead_s", "s"},
	{"store.puts", "count"},
	{"store.journal_records", "count"},
	{"store.bytes", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

// params is what every workload receives.
type params struct {
	seed    uint64
	budget  time.Duration // wall-clock time to keep measuring
	traced  bool
	root    string // repository checkout: results/ lives here
	workDir string // scratch space under .bench_build, removed at exit
}

// outcome is what a workload measured. failures lists every output check
// that failed; failed counts the replications those checks (or errors)
// cover.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	spans             []span
}

func (o *outcome) fail(replications int, format string, args ...any) {
	o.failed += replications
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(p params) (*outcome, error)
}

var workloads = []workload{
	{"paper-figures", runPaperFigures},
	{"scale-outbreak", func(p params) (*outcome, error) { return runScale(p, scaleOutbreak) }},
	{"scale-response", func(p params) (*outcome, error) { return runScale(p, scaleResponse) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-figures, scale-outbreak, scale-response")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "wall-clock seconds to keep measuring")
	trace := fs.Int("trace", 0, "1 for the traced run that yields the per-layer metrics")
	root := fs.String("root", ".", "repository checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := execute(*name, *seed, *seconds, *trace, *root, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func execute(name string, seed uint64, seconds, trace int, root string, stdout io.Writer) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		return fmt.Errorf("unknown workload %q", name)
	case seed == 0:
		return errors.New("--seed must be positive")
	case seconds < 1:
		return fmt.Errorf("--seconds must be >= 1, got %d", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if _, err := os.Stat(filepath.Join(root, "results")); err != nil {
		return fmt.Errorf("no committed results under %s: run from the repository root: %w", root, err)
	}
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(filepath.Join(base, "runs"), 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(base, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	stealBefore := stealSeconds()
	started := clock.System()
	out, err := wl.run(params{
		seed:    seed,
		budget:  time.Duration(seconds) * time.Second,
		traced:  trace == 1,
		root:    root,
		workDir: workDir,
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	env := runEnv{
		Workload:    name,
		Seed:        seed,
		Trace:       trace,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		StealDeltaS: stealSeconds() - stealBefore,
		ElapsedS:    clock.System().Sub(started).Seconds(),
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	metrics, err := emit(defs, out.metrics)
	if err != nil {
		return err
	}

	rec := runRecord{Env: env, Attempted: out.attempted, Failed: out.failed, Failures: out.failures, Metrics: metrics, Spans: out.spans}
	recPath := filepath.Join(base, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	if err := writeJSON(recPath, rec); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# env workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d go=%s steal_delta_s=%.2f elapsed_s=%.1f\n",
		name, seed, trace, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.StealDeltaS, env.ElapsedS)
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "# FAILED CHECK %s\n", f)
	}
	fmt.Fprintf(stdout, "%-28s %14.6g %s\n", "failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(stdout, "# record %s\n", recPath)
	line, err := json.Marshal(summary{
		Correct:   len(out.failures) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runEnv struct {
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Trace       int     `json:"trace"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	StealDeltaS float64 `json:"steal_delta_s"`
	ElapsedS    float64 `json:"elapsed_s"`
}

type runRecord struct {
	Env       runEnv                 `json:"env"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spans     []span                 `json:"spans,omitempty"`
}

// emit pairs every metric of defs with its measured value. A measured name
// outside defs, or a def with no measurement, is a benchmark bug.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for n := range values {
			if _, ok := out[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// stealSeconds reads the host's cumulative steal time from /proc/stat, or
// -1 where it is not available.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// gcStats is a snapshot of the Go runtime's collector counters.
type gcStats struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

// heapAfterGC forces a collection and returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// budgetLeft reports whether another iteration may start.
func budgetLeft(start time.Time, budget time.Duration) bool {
	return clock.System().Sub(start) < budget
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
