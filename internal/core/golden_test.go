package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/virus"
)

// resultDigest hashes everything a replication reports — every curve
// point with hex-exact values, the final count, the network and engine
// counters, and the detection time — so a golden digest pins the whole
// trajectory, not just its endpoint.
func resultDigest(r *Result) string {
	var b strings.Builder
	for _, p := range r.Infections.Points() {
		fmt.Fprintf(&b, "%d %x\n", p.T, p.V)
	}
	// The "peak" slot repeats the final count (phones never recover) so
	// the digested bytes, and the recorded digests, predate its removal
	// from Result.
	fmt.Fprintf(&b, "final %d peak %d\n", r.FinalInfected, r.FinalInfected)
	fmt.Fprintf(&b, "net %+v\n", r.Network)
	fmt.Fprintf(&b, "engine %+v\n", r.Engine)
	fmt.Fprintf(&b, "detected %v at %d\n", r.GatewayDetected, r.GatewayDetectedAt)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// goldenFaults is an outage, retry and churn schedule; no committed figure
// CSV exercises fault injection, so this case is its only trajectory pin.
func goldenFaults() *faults.Schedule {
	return &faults.Schedule{
		Outages:     []faults.Window{{Start: 2 * time.Hour, End: 5 * time.Hour, Capacity: 0.25}},
		DrainSpread: 10 * time.Minute,
		Retry:       faults.RetryPolicy{MaxAttempts: 3, Base: 30 * time.Second, Max: 10 * time.Minute, Jitter: 0.2},
		Churn: faults.Churn{
			UpTime:   rng.Exponential{MeanD: 12 * time.Hour},
			DownTime: rng.Exponential{MeanD: 20 * time.Minute},
		},
	}
}

// perCopyDetector is a detector drawing an independent verdict per copy,
// so its digest pins the detector's own random stream.
func perCopyDetector() mms.Response {
	return &response.Detector{Accuracy: 0.9, AnalysisDelay: time.Hour, IndependentPerCopy: true}
}

// goldenCases are the scenarios whose trajectories are pinned: at paper
// scale (1,000 phones, one shard) the baseline, each of the six
// mechanisms, the full stack, monitoring under legitimate traffic, and a
// fault schedule; and a few sharded runs, whose trajectories additionally
// depend on the shard layout and window: four shards for each mechanism
// family, and all six mechanisms with legitimate traffic at two shards
// and at seven, whose bounds over 2,000 phones are uneven. Those two use
// a slower stack than fullStack, which stops the outbreak after a handful
// of copies, so that hundreds of copies cross shards before the patch
// wave. The "-fast" cases react within one window of detection (Virus 3's
// default window is 11.25 min), so they also pin that one-shard detection
// is reported inside the detecting event rather than at the next barrier.
func goldenCases() map[string]Config {
	v3 := func(responses ...mms.ResponseFactory) Config {
		cfg := Default(virus.Virus3())
		cfg.Responses = responses
		return cfg
	}
	legit := v3(response.NewMonitorFull(30*time.Minute, 2, 15*time.Minute))
	legit.Network.LegitSendInterval = rng.Exponential{MeanD: 25 * time.Minute}
	faulty := v3(response.NewScan(2 * time.Hour))
	faulty.Faults = goldenFaults()
	faulty.Network.DeliveryLossProb = 0.05
	v1Immunize := Default(virus.Virus1())
	v1Immunize.Responses = []mms.ResponseFactory{response.NewImmunizer(24*time.Hour, 6*time.Hour)}
	v2Detector := Default(virus.Virus2())
	v2Detector.Horizon = 72 * time.Hour
	v2Detector.Responses = []mms.ResponseFactory{response.NewDetector(0.9, response.DefaultAnalysisDelay)}
	fullStack := []mms.ResponseFactory{
		response.NewScan(6 * time.Hour),
		response.NewDetector(0.8, time.Hour),
		response.NewEducation(0.3),
		response.NewImmunizer(2*time.Hour, time.Hour),
		response.NewMonitor(15 * time.Minute),
		response.NewBlacklist(20),
	}
	sharded := func(responses ...mms.ResponseFactory) Config {
		cfg := v3(responses...)
		cfg.Population = 2000
		cfg.Shards = 4
		cfg.ShardWindow = 5 * time.Minute
		return cfg
	}
	shardedStack := sharded(fullStack...)
	shardedStack.Network.LegitSendInterval = rng.Exponential{MeanD: time.Hour}
	slowStack := func(shards int) Config {
		cfg := sharded(
			response.NewScan(6*time.Hour),
			response.NewDetector(0.5, 3*time.Hour),
			response.NewEducation(0.3),
			response.NewImmunizer(3*time.Hour, 2*time.Hour),
			response.NewMonitorFull(30*time.Minute, 6, 2*time.Minute),
			response.NewBlacklist(100),
		)
		cfg.Shards = shards
		cfg.Network.LegitSendInterval = rng.Exponential{MeanD: time.Hour}
		return cfg
	}
	return map[string]Config{
		"sharded-baseline":  sharded(),
		"sharded-stack":     shardedStack,
		"sharded-stack-2":   slowStack(2),
		"sharded-stack-7":   slowStack(7),
		"sharded-immunize":  sharded(response.NewImmunizer(time.Hour, 3*time.Hour)),
		"sharded-detector":  sharded(perCopyDetector),
		"baseline":          v3(),
		"scan":              v3(response.NewScan(2 * time.Hour)),
		"detector":          v3(response.NewDetector(0.85, time.Hour)),
		"detector-per-copy": v3(perCopyDetector),
		"education":         v3(response.NewEducation(0.2)),
		"immunize":          v3(response.NewImmunizer(2*time.Hour, 4*time.Hour)),
		"immunize-instant":  v3(response.NewImmunizer(3*time.Hour, 0)),
		"immunize-fast":     v3(response.NewImmunizer(5*time.Minute, 10*time.Minute)),
		"scan-fast":         v3(response.NewScan(5 * time.Minute)),
		"monitor":           v3(response.NewMonitor(30 * time.Minute)),
		"blacklist":         v3(response.NewBlacklist(10)),
		"full-stack":        v3(fullStack...),
		"monitor-legit":     legit,
		"faults":            faulty,
		"virus1-immunize":   v1Immunize,
		"virus2-detector":   v2Detector,
	}
}

// goldenDigests are the resultDigest values of goldenCases for seeds 1 and
// 0xfeed. They pin the trajectories across code changes: a change that
// moves any event, stream draw, or counter in these scenarios fails here,
// in `go test`, rather than in a figure regeneration.
var goldenDigests = map[string][2]string{
	"baseline":          {"6cbe49c5a8330192", "97039b1543270f1b"},
	"blacklist":         {"d7c6657574afbac8", "cf5e4899c1ec3bb1"},
	"detector":          {"379ef60a9c65f288", "0afec1c0ad9cd494"},
	"detector-per-copy": {"76511bcc3e6ffa8d", "f93aa81ab73aa9aa"},
	"education":         {"65558801ea654db6", "fdbb66b134f414c6"},
	"faults":            {"b5b277797a8309bd", "2add5fddae3e38ca"},
	"full-stack":        {"7b506a19b225c459", "faa7c714d459d8ff"},
	"immunize":          {"9a416745adc1e96a", "39d3fcb903a7defc"},
	"immunize-fast":     {"4f319661280c6dcd", "88742141d2890404"},
	"immunize-instant":  {"d879d4e49a7a7d35", "01be7980da0193b3"},
	"monitor":           {"6eb8fdfdd27f11ba", "bf2bbbb114c297b3"},
	"monitor-legit":     {"74db0b91eed64cce", "28e7f388e33577b2"},
	"scan":              {"48e03157098fceb7", "0763729855329542"},
	"scan-fast":         {"e75a77139f79b201", "ddb965c5426a1610"},
	"sharded-baseline":  {"40c37ce88820cd5f", "401b717c46da3b31"},
	"sharded-detector":  {"74f3c6598f3fbc8d", "7814274ec90bb7f2"},
	"sharded-immunize":  {"4b1f9f0d62ff7b6e", "1c396d0d0345e020"},
	"sharded-stack":     {"780e2fddb1bc42ff", "33286331e54cbddf"},
	"sharded-stack-2":   {"6e033e7483e8d439", "fffe10cba96925a6"},
	"sharded-stack-7":   {"9d3eaebd8498f0e6", "09ce49d96e746e4c"},
	"virus1-immunize":   {"4e3c28d3f7cfea44", "4258a10779bfa218"},
	"virus2-detector":   {"07311a59f6c92d3e", "8e9f63f925ff3ae6"},
}

// TestGoldenTrajectories checks every golden case against its recorded
// digests.
func TestGoldenTrajectories(t *testing.T) {
	t.Parallel()
	for name, cfg := range goldenCases() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var got [2]string
			for i, seed := range []uint64{1, 0xfeed} {
				res, err := RunOnce(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = resultDigest(res)
			}
			if want, ok := goldenDigests[name]; !ok || got != want {
				t.Errorf("trajectory moved: got %q: {%q, %q}, want %q", name, got[0], got[1], want)
			}
		})
	}
}
