package experiment

import (
	"fmt"
	"time"

	"repro/internal/mms"
	"repro/internal/response"
	"repro/internal/virus"
)

// The paper's evaluation contains negative results — mechanisms that fail
// against particular viruses — that matter as much as the positive ones for
// the "optimal response strategy" conclusion of Section 5.3. These studies
// reproduce each of them.

// scanVsVirus3Claims is the Section 5.2 negative result N1.
var scanVsVirus3Claims = []Claim{{
	ID:        "N1",
	Statement: "Gateway scan is ineffectual against Virus 3 (penetration completes before the signature lands)",
	Stat:      FinalRatio, A: []string{"6-Hour Delay"}, B: "Baseline",
	Bound: []Cond{{">", 0.60}},
}}

// ScanVsVirus3Study reproduces "the gateway virus scan is completely
// ineffectual against rapid viruses like Virus 3 because the virus has
// already completely penetrated the entire susceptible population before
// the new virus signature is added".
func ScanVsVirus3Study(s Scale) Figure {
	fig := Figure{
		ID:     "neg-scan-v3",
		Title:  "Negative result: Gateway Scan vs fast Virus 3",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: scanVsVirus3Claims,
	}
	fig.Series = append(fig.Series, Series{Label: "Baseline", Config: s.paperConfig(virus.Virus3())})
	for _, delay := range []time.Duration{6 * time.Hour, 12 * time.Hour} {
		cfg := s.paperConfig(virus.Virus3())
		cfg.Responses = []mms.ResponseFactory{response.NewScan(delay)}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("%d-Hour Delay", int(delay.Hours())),
			Config: cfg,
		})
	}
	return fig
}

// monitorVsSlowVirusesClaims are the Section 5.2 negative results N2, one
// per self-throttled virus.
var monitorVsSlowVirusesClaims = func() []Claim {
	var claims []Claim
	for _, v := range slowViruses() {
		claims = append(claims, Claim{
			ID:        "N2-" + v.Name[len(v.Name)-1:],
			Statement: fmt.Sprintf("Monitoring is ineffectual against %s (volume within normal traffic)", v.Name),
			Stat:      FinalRatio, A: []string{v.Name + " Monitored"}, B: v.Name,
			Bound: []Cond{{">", 0.70}},
		})
	}
	return claims
}()

// slowViruses are the viruses whose own pacing keeps them under the
// monitor's threshold.
func slowViruses() []virus.Config {
	return []virus.Config{virus.Virus1(), virus.Virus2(), virus.Virus4()}
}

// MonitorVsSlowVirusesStudy reproduces "the monitoring response mechanism
// is ineffectual against Viruses 1, 2, and 4 because the self-imposed
// constraints of those viruses limit the total number of messages sent from
// each phone per unit time".
func MonitorVsSlowVirusesStudy(s Scale) Figure {
	fig := Figure{
		ID:     "neg-monitor-slow",
		Title:  "Negative result: Monitoring vs self-throttled Viruses 1, 2, 4",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: monitorVsSlowVirusesClaims,
	}
	for _, v := range slowViruses() {
		fig.Series = append(fig.Series, Series{Label: v.Name, Config: s.paperConfig(v)})
		cfg := s.paperConfig(v)
		cfg.Responses = []mms.ResponseFactory{response.NewMonitor(30 * time.Minute)}
		fig.Series = append(fig.Series, Series{Label: v.Name + " Monitored", Config: cfg})
	}
	return fig
}

// blacklistVsVirus2Claims is the Section 5.2 negative result N3.
var blacklistVsVirus2Claims = []Claim{{
	ID:        "N3",
	Statement: "Blacklisting is ineffective against Virus 2 (message counts miss multi-recipient spread)",
	Stat:      FinalRatio, A: []string{"10 Messages"}, B: "Baseline",
	Bound: []Cond{{">", 0.60}},
}}

// BlacklistVsVirus2Study reproduces "blacklisting is completely ineffective
// for Virus 2 at any threshold level because Virus 2 sends each infected
// message to many recipients, so the number of infected messages sent from
// a phone does not accurately capture the amount of virus propagation
// activity".
func BlacklistVsVirus2Study(s Scale) Figure {
	fig := Figure{
		ID:     "neg-blacklist-v2",
		Title:  "Negative result: Blacklisting vs multi-recipient Virus 2",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: blacklistVsVirus2Claims,
	}
	fig.Series = append(fig.Series, Series{Label: "Baseline", Config: s.paperConfig(virus.Virus2())})
	for _, threshold := range []int{10, 40} {
		cfg := s.paperConfig(virus.Virus2())
		cfg.Responses = []mms.ResponseFactory{response.NewBlacklist(threshold)}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("%d Messages", threshold),
			Config: cfg,
		})
	}
	return fig
}

// blacklistVsVirus1Claims are the Section 5.2 results N4a and N4b.
var blacklistVsVirus1Claims = []Claim{
	{
		ID:        "N4a",
		Statement: "Blacklist@10 restricts Virus 1 to ~60% of baseline penetration",
		Stat:      FinalRatio, A: []string{"10 Messages"}, B: "Baseline",
		Bound: []Cond{{">", 0.35}, {"<", 0.85}},
	},
	{
		ID:        "N4b",
		Statement: "Blacklist at higher thresholds is ineffective for Virus 1",
		Stat:      FinalRatio, A: []string{"40 Messages"}, B: "Baseline",
		Bound: []Cond{{">", 0.80}},
	},
}

// BlacklistVsVirus1Study reproduces "blacklisting at a threshold level of
// 10 infected messages is somewhat effective for Viruses 1 and 4: the
// infection penetration is restricted to approximately 60% of the baseline
// infection penetration. However, blacklisting at higher thresholds is
// ineffective for these viruses."
func BlacklistVsVirus1Study(s Scale) Figure {
	fig := Figure{
		ID:     "neg-blacklist-v1",
		Title:  "Blacklisting vs single-recipient Virus 1 (threshold 10 vs 40)",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: blacklistVsVirus1Claims,
	}
	fig.Series = append(fig.Series, Series{Label: "Baseline", Config: s.paperConfig(virus.Virus1())})
	for _, threshold := range []int{10, 40} {
		cfg := s.paperConfig(virus.Virus1())
		cfg.Responses = []mms.ResponseFactory{response.NewBlacklist(threshold)}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("%d Messages", threshold),
			Config: cfg,
		})
	}
	return fig
}

// blacklistEquivalenceClaims is the Section 5.2 equivalence N5.
var blacklistEquivalenceClaims = []Claim{{
	ID: "N5",
	Statement: "Blacklist@30 vs random targeting is equivalent to blacklist@10 vs contact targeting " +
		"(1/3 of random dials are valid)",
	Stat: Agreement, A: []string{"Random @ threshold 30"}, B: "Contacts @ threshold 10",
	Bound: []Cond{{">", 0.45}},
}}

// BlacklistEquivalenceStudy reproduces the Section 5.2 equivalence:
// "blacklisting with a threshold level of 30 infected messages implemented
// against a virus with random propagation is equivalent, in terms of
// effectiveness, to blacklisting with a threshold level of 10 against a
// virus with contact list propagation" — because only one third of random
// dials are valid.
func BlacklistEquivalenceStudy(s Scale) Figure {
	fig := Figure{
		ID:     "blacklist-equivalence",
		Title:  "Blacklist equivalence: threshold 30 vs random == threshold 10 vs contacts",
		XLabel: "Hours",
		YLabel: "Infection Count",
		Claims: blacklistEquivalenceClaims,
	}
	// Virus 3 variant restricted to Virus 1's pacing so only the targeting
	// differs, plus the true Virus 1, both over the same horizon.
	contactVirus := virus.Virus3()
	contactVirus.Name = "Contact-list variant"
	contactVirus.Targeting = virus.TargetContacts
	contactVirus.ContactOrder = virus.OrderCycle
	contactVirus.ValidNumberFraction = 0

	randomCfg := s.paperConfig(virus.Virus3())
	randomCfg.Responses = []mms.ResponseFactory{response.NewBlacklist(30)}
	contactCfg := s.paperConfig(contactVirus)
	contactCfg.Horizon = randomCfg.Horizon
	contactCfg.Responses = []mms.ResponseFactory{response.NewBlacklist(10)}

	fig.Series = append(fig.Series,
		Series{Label: "Random @ threshold 30", Config: randomCfg},
		Series{Label: "Contacts @ threshold 10", Config: contactCfg},
	)
	return fig
}
