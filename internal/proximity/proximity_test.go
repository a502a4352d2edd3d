package proximity

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/curve"
	"repro/internal/mms"
)

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Population = 60
	cfg.ArenaSize = 100 // dense: encounters are frequent
	cfg.Horizon = 12 * time.Hour
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	t.Parallel()

	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()

	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"tiny population", func(c *Config) { c.Population = 1 }},
		{"zero susceptible", func(c *Config) { c.SusceptibleFraction = 0 }},
		{"zero arena", func(c *Config) { c.ArenaSize = 0 }},
		{"zero range", func(c *Config) { c.Range = 0 }},
		{"bad speeds", func(c *Config) { c.SpeedMin = 2; c.SpeedMax = 1 }},
		{"zero scan", func(c *Config) { c.ScanInterval = 0 }},
		{"negative transfer", func(c *Config) { c.TransferTime = -1 }},
		{"bad AF", func(c *Config) { c.AcceptanceFactor = 0 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRunSpreads(t *testing.T) {
	t.Parallel()

	res, err := Run(fastConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInfected < 2 {
		t.Errorf("no spread: %d infected", res.FinalInfected)
	}
	if res.Encounters == 0 || res.Transfers == 0 {
		t.Errorf("no encounters/transfers: %d/%d", res.Encounters, res.Transfers)
	}
	if !res.Infections.Monotone() {
		t.Error("infection curve not monotone")
	}
}

func TestRunBoundedBySusceptiblePool(t *testing.T) {
	t.Parallel()

	cfg := fastConfig()
	cfg.SusceptibleFraction = 0.5
	cfg.Horizon = 48 * time.Hour
	res, err := Run(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInfected > 30 {
		t.Errorf("infected %d exceeds susceptible pool of 30", res.FinalInfected)
	}
}

func TestRunDeterministic(t *testing.T) {
	t.Parallel()

	a, err := Run(fastConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalInfected != b.FinalInfected || a.Transfers != b.Transfers {
		t.Errorf("replay diverged: (%d,%d) vs (%d,%d)",
			a.FinalInfected, a.Transfers, b.FinalInfected, b.Transfers)
	}
}

func TestSparseArenaSpreadsSlower(t *testing.T) {
	t.Parallel()

	dense := fastConfig()
	sparse := fastConfig()
	sparse.ArenaSize = 2000 // same population, 400x the area
	denseTotal, sparseTotal := 0, 0
	for seed := uint64(1); seed <= 5; seed++ {
		d, err := Run(dense, seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Run(sparse, seed)
		if err != nil {
			t.Fatal(err)
		}
		denseTotal += d.FinalInfected
		sparseTotal += s.FinalInfected
	}
	if sparseTotal >= denseTotal {
		t.Errorf("sparse arena spread (%d) not slower than dense (%d)", sparseTotal, denseTotal)
	}
}

func TestPhonePosInterpolation(t *testing.T) {
	t.Parallel()

	p := phone{x0: 0, y0: 0, x1: 10, y1: 0, t0: 0, t1: 10 * time.Second}
	if x, _ := p.pos(5 * time.Second); x != 5 {
		t.Errorf("midpoint x = %v, want 5", x)
	}
	if x, _ := p.pos(20 * time.Second); x != 10 {
		t.Errorf("post-arrival x = %v, want 10", x)
	}
	if x, _ := p.pos(0); x != 0 {
		t.Errorf("departure x = %v, want 0", x)
	}
	// Degenerate zero-duration leg.
	q := phone{x0: 3, y0: 4, x1: 3, y1: 4}
	if x, y := q.pos(time.Second); x != 3 || y != 4 {
		t.Errorf("degenerate leg pos = (%v,%v)", x, y)
	}
}

func TestConsentModelShared(t *testing.T) {
	t.Parallel()

	// The Bluetooth model uses the same AF/2^n consent model as MMS; with
	// a tiny acceptance factor almost nothing spreads.
	cfg := fastConfig()
	cfg.AcceptanceFactor = 1e-9
	res, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalInfected != 1 {
		t.Errorf("spread despite near-zero acceptance: %d", res.FinalInfected)
	}
	if res.Transfers == 0 {
		t.Error("no transfers attempted")
	}
	_ = mms.PaperAcceptanceFactor
}

func TestEducationReducesBluetoothSpread(t *testing.T) {
	t.Parallel()

	base := fastConfig()
	educated := fastConfig()
	educated.EducationAcceptance = 0.10
	baseTotal, eduTotal := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		b, err := Run(base, seed)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Run(educated, seed)
		if err != nil {
			t.Fatal(err)
		}
		baseTotal += b.FinalInfected
		eduTotal += e.FinalInfected
	}
	if eduTotal*2 >= baseTotal {
		t.Errorf("education did not substantially reduce spread: %d vs %d", eduTotal, baseTotal)
	}
}

func TestPatchCampaignContainsBluetoothSpread(t *testing.T) {
	t.Parallel()

	// A roomier arena slows the outbreak so the campaign can race it.
	base := fastConfig()
	base.ArenaSize = 250
	base.Horizon = 24 * time.Hour
	patched := base
	patched.PatchDevelopment = time.Hour
	patched.PatchDeployment = 30 * time.Minute
	patched.PatchDetectCount = 2
	baseTotal, patchTotal, patchedPhones := 0, 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		b, err := Run(base, seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(patched, seed)
		if err != nil {
			t.Fatal(err)
		}
		baseTotal += b.FinalInfected
		patchTotal += p.FinalInfected
		patchedPhones += p.Patched
	}
	if patchTotal >= baseTotal {
		t.Errorf("patching did not reduce spread: %d vs %d", patchTotal, baseTotal)
	}
	if patchedPhones == 0 {
		t.Error("no phones patched")
	}
}

func TestProximityDefenseValidation(t *testing.T) {
	t.Parallel()

	cfg := fastConfig()
	cfg.EducationAcceptance = 1
	if err := cfg.Validate(); err == nil {
		t.Error("education acceptance 1 accepted")
	}
	cfg = fastConfig()
	cfg.PatchDevelopment = -time.Hour
	if err := cfg.Validate(); err == nil {
		t.Error("negative patch development accepted")
	}
	cfg = fastConfig()
	cfg.PatchDetectCount = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative detect count accepted")
	}
}

// curveDigest hashes every infection-curve point with hex-exact values.
func curveDigest(c *curve.Curve) string {
	var b strings.Builder
	for _, p := range c.Points() {
		fmt.Fprintf(&b, "%d %x\n", p.T, p.V)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// TestRunPinned pins whole trajectories to recorded values, so a change to
// the model's event plumbing that reorders any event or RNG draw fails here
// even when two runs in one process still agree with each other.
func TestRunPinned(t *testing.T) {
	t.Parallel()

	defended := DefaultConfig()
	defended.EducationAcceptance = 0.3
	defended.PatchDevelopment = 6 * time.Hour
	defended.PatchDeployment = 2 * time.Hour
	defended.PatchDetectCount = 2
	tests := []struct {
		name                  string
		cfg                   Config
		seed                  uint64
		final                 int
		encounters, transfers uint64
		patched               int
		digest                string
	}{
		{"default/1", DefaultConfig(), 1, 59, 14969, 1536, 0, "0e143509ac04d4b1"},
		{"default/2", DefaultConfig(), 2, 63, 18044, 1929, 0, "ba7ba0af898dbbb9"},
		{"defended/1", defended, 1, 6, 325, 24, 200, "10bfb1de108aca68"},
		{"defended/2", defended, 2, 9, 457, 39, 200, "08e694abfea12b4d"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(tt.cfg, tt.seed)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("final %d encounters %d transfers %d patched %d curve %s",
				res.FinalInfected, res.Encounters, res.Transfers, res.Patched, curveDigest(res.Infections))
			want := fmt.Sprintf("final %d encounters %d transfers %d patched %d curve %s",
				tt.final, tt.encounters, tt.transfers, tt.patched, tt.digest)
			if got != want {
				t.Errorf("trajectory drifted:\n got %s\nwant %s", got, want)
			}
		})
	}
}
