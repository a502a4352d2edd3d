package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/virus"
)

// Every config the paper studies must be cacheable, or the sweep cache
// silently degrades to a no-op for the workloads it exists for.
func TestAllStudiesCacheable(t *testing.T) {
	for _, fig := range AllStudies(FullScale) {
		for _, s := range fig.Series {
			fp := ConfigFingerprint(s.Config)
			if !fp.Cacheable() {
				t.Errorf("%s / %s: uncacheable: %s", fig.ID, s.Label, fp.Opacity())
			}
		}
	}
}

// Two independently built copies of the same study must share addresses:
// the factories are distinct closures, but their products describe
// identically. This is the property that lets Figure 4 reuse Figure 1's
// baselines.
func TestFingerprintStableAcrossConstruction(t *testing.T) {
	a, b := Figure1(FullScale), Figure1(FullScale)
	for i := range a.Series {
		fa := ConfigFingerprint(a.Series[i].Config)
		fb := ConfigFingerprint(b.Series[i].Config)
		if !fa.Cacheable() || !fb.Cacheable() {
			t.Fatalf("series %d uncacheable: %s / %s", i, fa, fb)
		}
		if fa.sum != fb.sum {
			t.Errorf("series %d: same scenario, different addresses %s vs %s", i, fa, fb)
		}
	}
}

// Any declarative difference must produce a distinct address; a collision
// here would silently serve one scenario's results as another's.
func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := func() core.Config { return testScale.paperConfig(virus.Virus1()) }
	mutations := map[string]func(*core.Config){
		"population":   func(c *core.Config) { c.Population++ },
		"susceptible":  func(c *core.Config) { c.SusceptibleFraction += 0.01 },
		"graph-degree": func(c *core.Config) { c.Graph.MeanDegree++ },
		"virus":        func(c *core.Config) { c.Virus = virus.Virus3() },
		"loss":         func(c *core.Config) { c.Network.DeliveryLossProb = 0.125 },
		"horizon":      func(c *core.Config) { c.Horizon += time.Hour },
		"seeds":        func(c *core.Config) { c.InitialInfected++ },
		"response": func(c *core.Config) {
			c.Responses = []mms.ResponseFactory{response.NewScan(6 * time.Hour)}
		},
		"response-param": func(c *core.Config) {
			c.Responses = []mms.ResponseFactory{response.NewScan(12 * time.Hour)}
		},
		"faults": func(c *core.Config) {
			c.Faults = &faults.Schedule{Outages: []faults.Window{{End: time.Hour}}}
		},
		"legit-traffic": func(c *core.Config) {
			c.Network.LegitSendInterval = rng.Exponential{MeanD: 25 * time.Minute}
		},
		"shards":       func(c *core.Config) { c.Shards = 4 },
		"shard-window": func(c *core.Config) { c.Shards = 4; c.ShardWindow = time.Hour },
	}
	seen := map[string]string{ConfigFingerprint(base()).String(): "base"}
	for name, mutate := range mutations {
		cfg := base()
		mutate(&cfg)
		fp := ConfigFingerprint(cfg)
		if !fp.Cacheable() {
			t.Errorf("%s: uncacheable: %s", name, fp.Opacity())
			continue
		}
		if prev, dup := seen[fp.String()]; dup {
			t.Errorf("%s collides with %s at %s", name, prev, fp)
		}
		seen[fp.String()] = name
	}
}

// opaqueDist is a distribution the fingerprint module does not know; its
// behaviour cannot be derived from its String.
type opaqueDist struct{}

func (opaqueDist) Sample(*rng.Source) time.Duration { return time.Second }
func (opaqueDist) Mean() time.Duration              { return time.Second }
func (opaqueDist) String() string                   { return "opaque" }

// undescribedResponse is a Response without a Descriptor.
type undescribedResponse struct{}

func (undescribedResponse) Name() string                            { return "undescribed" }
func (undescribedResponse) Attach(*mms.ShardSet, *rng.Source) error { return nil }

// Every opaque element must defeat caching — hashing a func or a foreign
// type would address behaviour the encoding cannot see.
func TestFingerprintOpaque(t *testing.T) {
	cases := map[string]struct {
		mutate func(*core.Config)
		want   string
	}{
		"graph-builder": {func(c *core.Config) {
			c.GraphBuilder = func(src *rng.Source) (*graph.Graph, error) { return nil, nil }
		}, "graph-builder"},
		"csr-builder": {func(c *core.Config) {
			c.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) { return nil, nil }
		}, "csr-builder"},
		"post-run": {func(c *core.Config) {
			c.PostRun = func(*mms.ShardSet) {}
		}, "post-run"},
		"foreign-dist": {func(c *core.Config) {
			c.Virus.ExtraWait = opaqueDist{}
		}, "opaque distribution"},
		"nil-factory": {func(c *core.Config) {
			c.Responses = []mms.ResponseFactory{nil}
		}, "nil factory"},
		"nil-product": {func(c *core.Config) {
			c.Responses = []mms.ResponseFactory{func() mms.Response { return nil }}
		}, "built nil"},
		"undescribed-response": {func(c *core.Config) {
			c.Responses = []mms.ResponseFactory{func() mms.Response { return undescribedResponse{} }}
		}, "no descriptor"},
	}
	for name, tc := range cases {
		cfg := testScale.paperConfig(virus.Virus1())
		tc.mutate(&cfg)
		fp := ConfigFingerprint(cfg)
		if fp.Cacheable() {
			t.Errorf("%s: config with opaque element hashed cleanly to %s", name, fp)
			continue
		}
		if !strings.Contains(fp.Opacity(), tc.want) {
			t.Errorf("%s: opacity %q does not mention %q", name, fp.Opacity(), tc.want)
		}
	}
}

// The fingerprint walks config structs field by explicit field, so a new
// field silently missing from the walk would let two behaviourally
// different configs share an address. This pin fails when any hashed
// struct gains or loses a field, forcing ConfigFingerprint (and
// fingerprintSchema) to be revisited.
func TestFingerprintFieldCoverage(t *testing.T) {
	pins := map[string]struct {
		typ  reflect.Type
		want []string
	}{
		"core.Config": {reflect.TypeOf(core.Config{}), []string{
			"Population", "SusceptibleFraction", "Graph", "GraphBuilder",
			"CSRBuilder", "Virus", "Network", "Responses", "Faults",
			"InitialInfected", "Horizon", "PostRun", "Shards",
			"ShardWindow", "ShardWorkers",
		}},
		"virus.Config": {reflect.TypeOf(virus.Config{}), []string{
			"Name", "Targeting", "ContactOrder", "RecipientsPerMessage",
			"ValidNumberFraction", "MinWait", "ExtraWait", "Dormancy",
			"Quota", "MessagesPerQuota", "Period", "PeriodAligned",
			"RebootInterval",
		}},
		"mms.Config": {reflect.TypeOf(mms.Config{}), []string{
			"DeliveryDelay", "ReadDelay", "AcceptanceFactor",
			"GatewayDetectThreshold", "AllowDuplicateTrials",
			"DeliveryLossProb", "LegitSendInterval", "Faults",
		}},
		"graph.PowerLawConfig": {reflect.TypeOf(graph.PowerLawConfig{}), []string{
			"N", "MeanDegree", "Exponent", "MinDegree", "MaxDegree",
			"Locality", "LongRangeFraction",
		}},
		"faults.Schedule": {reflect.TypeOf(faults.Schedule{}), []string{
			"Outages", "Retry", "Churn", "DrainSpread",
		}},
		"faults.Window": {reflect.TypeOf(faults.Window{}), []string{
			"Start", "End", "Capacity",
		}},
		"faults.RetryPolicy": {reflect.TypeOf(faults.RetryPolicy{}), []string{
			"MaxAttempts", "Base", "Max", "Jitter",
		}},
		"faults.Churn": {reflect.TypeOf(faults.Churn{}), []string{
			"UpTime", "DownTime",
		}},
	}
	for name, pin := range pins {
		var got []string
		for i := 0; i < pin.typ.NumField(); i++ {
			got = append(got, pin.typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, pin.want) {
			t.Errorf("%s fields changed:\n got  %v\n want %v\nupdate ConfigFingerprint and bump fingerprintSchema before re-pinning",
				name, got, pin.want)
		}
	}
}
