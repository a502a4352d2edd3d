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
		Claims: CheckScanVsVirus3,
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
		Claims: CheckMonitorVsSlowViruses,
	}
	for _, v := range []virus.Config{virus.Virus1(), virus.Virus2(), virus.Virus4()} {
		fig.Series = append(fig.Series, Series{Label: v.Name, Config: s.paperConfig(v)})
		cfg := s.paperConfig(v)
		cfg.Responses = []mms.ResponseFactory{response.NewMonitor(30 * time.Minute)}
		fig.Series = append(fig.Series, Series{Label: v.Name + " Monitored", Config: cfg})
	}
	return fig
}

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
		Claims: CheckBlacklistVsVirus2,
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
		Claims: CheckBlacklistVsVirus1,
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
		Claims: CheckBlacklistEquivalence,
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

// NegativeStudies returns every negative-result and equivalence study.
func NegativeStudies(s Scale) []Figure {
	return []Figure{
		ScanVsVirus3Study(s),
		MonitorVsSlowVirusesStudy(s),
		BlacklistVsVirus2Study(s),
		BlacklistVsVirus1Study(s),
		BlacklistEquivalenceStudy(s),
	}
}

// CheckScanVsVirus3 asserts the scan barely dents Virus 3.
func CheckScanVsVirus3(fr *FigureResult) ([]Check, error) {
	base, ok := fr.SeriesByLabel("Baseline")
	if !ok {
		return nil, fmt.Errorf("%w: Baseline", ErrSeriesMissing)
	}
	d6, ok := fr.SeriesByLabel("6-Hour Delay")
	if !ok {
		return nil, fmt.Errorf("%w: 6-Hour Delay", ErrSeriesMissing)
	}
	r := ratio(d6.FinalMean, base.FinalMean)
	return []Check{{
		ID:        "N1",
		Statement: "Gateway scan is ineffectual against Virus 3 (penetration completes before the signature lands)",
		Measured:  fmt.Sprintf("final %.1f with 6h scan vs baseline %.1f (%.0f%%)", d6.FinalMean, base.FinalMean, 100*r),
		Pass:      r > 0.60,
	}}, nil
}

// CheckMonitorVsSlowViruses asserts monitoring leaves Viruses 1, 2, 4
// essentially untouched.
func CheckMonitorVsSlowViruses(fr *FigureResult) ([]Check, error) {
	var checks []Check
	for _, name := range []string{"Virus 1", "Virus 2", "Virus 4"} {
		base, ok := fr.SeriesByLabel(name)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrSeriesMissing, name)
		}
		mon, ok := fr.SeriesByLabel(name + " Monitored")
		if !ok {
			return nil, fmt.Errorf("%w: %s Monitored", ErrSeriesMissing, name)
		}
		r := ratio(mon.FinalMean, base.FinalMean)
		checks = append(checks, Check{
			ID:        "N2-" + name[len(name)-1:],
			Statement: fmt.Sprintf("Monitoring is ineffectual against %s (volume within normal traffic)", name),
			Measured:  fmt.Sprintf("final %.1f monitored vs %.1f baseline (%.0f%%)", mon.FinalMean, base.FinalMean, 100*r),
			Pass:      r > 0.70,
		})
	}
	return checks, nil
}

// CheckBlacklistVsVirus2 asserts blacklisting fails against Virus 2 at any
// threshold.
func CheckBlacklistVsVirus2(fr *FigureResult) ([]Check, error) {
	base, ok := fr.SeriesByLabel("Baseline")
	if !ok {
		return nil, fmt.Errorf("%w: Baseline", ErrSeriesMissing)
	}
	t10, ok := fr.SeriesByLabel("10 Messages")
	if !ok {
		return nil, fmt.Errorf("%w: 10 Messages", ErrSeriesMissing)
	}
	r := ratio(t10.FinalMean, base.FinalMean)
	return []Check{{
		ID:        "N3",
		Statement: "Blacklisting is ineffective against Virus 2 (message counts miss multi-recipient spread)",
		Measured:  fmt.Sprintf("final %.1f at threshold 10 vs baseline %.1f (%.0f%%)", t10.FinalMean, base.FinalMean, 100*r),
		Pass:      r > 0.60,
	}}, nil
}

// CheckBlacklistVsVirus1 asserts the 60%-of-baseline containment at
// threshold 10 and ineffectiveness at 40 for Virus 1.
func CheckBlacklistVsVirus1(fr *FigureResult) ([]Check, error) {
	base, ok := fr.SeriesByLabel("Baseline")
	if !ok {
		return nil, fmt.Errorf("%w: Baseline", ErrSeriesMissing)
	}
	t10, ok := fr.SeriesByLabel("10 Messages")
	if !ok {
		return nil, fmt.Errorf("%w: 10 Messages", ErrSeriesMissing)
	}
	t40, ok := fr.SeriesByLabel("40 Messages")
	if !ok {
		return nil, fmt.Errorf("%w: 40 Messages", ErrSeriesMissing)
	}
	r10 := ratio(t10.FinalMean, base.FinalMean)
	r40 := ratio(t40.FinalMean, base.FinalMean)
	return []Check{
		{
			ID:        "N4a",
			Statement: "Blacklist@10 restricts Virus 1 to ~60% of baseline penetration",
			Measured:  fmt.Sprintf("final %.1f vs baseline %.1f (%.0f%%)", t10.FinalMean, base.FinalMean, 100*r10),
			Pass:      r10 > 0.35 && r10 < 0.85,
		},
		{
			ID:        "N4b",
			Statement: "Blacklist at higher thresholds is ineffective for Virus 1",
			Measured:  fmt.Sprintf("final %.1f at threshold 40 vs baseline %.1f (%.0f%%)", t40.FinalMean, base.FinalMean, 100*r40),
			Pass:      r40 > 0.80,
		},
	}, nil
}

// CheckBlacklistEquivalence asserts the threshold-30-random vs
// threshold-10-contacts equivalence.
func CheckBlacklistEquivalence(fr *FigureResult) ([]Check, error) {
	random, ok := fr.SeriesByLabel("Random @ threshold 30")
	if !ok {
		return nil, fmt.Errorf("%w: Random @ threshold 30", ErrSeriesMissing)
	}
	contacts, ok := fr.SeriesByLabel("Contacts @ threshold 10")
	if !ok {
		return nil, fmt.Errorf("%w: Contacts @ threshold 10", ErrSeriesMissing)
	}
	hi, lo := random.FinalMean, contacts.FinalMean
	if lo > hi {
		hi, lo = lo, hi
	}
	r := 1.0
	if hi > 0 {
		r = lo / hi
	}
	return []Check{{
		ID: "N5",
		Statement: "Blacklist@30 vs random targeting is equivalent to blacklist@10 vs contact targeting " +
			"(1/3 of random dials are valid)",
		Measured: fmt.Sprintf("final %.1f (random@30) vs %.1f (contacts@10), agreement %.0f%%",
			random.FinalMean, contacts.FinalMean, 100*r),
		Pass: r > 0.45,
	}}, nil
}
