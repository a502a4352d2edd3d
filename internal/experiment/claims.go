package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Check is the evaluation of one of the paper's in-text quantitative
// claims against measured results.
type Check struct {
	// ID names the claim (C1..C6 in DESIGN.md).
	ID string
	// Statement paraphrases the paper.
	Statement string
	// Measured describes what this reproduction observed.
	Measured string
	// Pass reports whether the claim's direction/magnitude held.
	Pass bool
}

func (c Check) String() string {
	status := "FAIL"
	if c.Pass {
		status = "ok"
	}
	return fmt.Sprintf("[%s] %-4s %s\n        measured: %s", c.ID, status, c.Statement, c.Measured)
}

// Stat is the statistic a claim row computes for each of its A series.
type Stat int

const (
	// FinalRatio is A's final over B's (0 when B's final is 0).
	FinalRatio Stat = iota + 1
	// FinalDiff is A's final minus B's.
	FinalDiff
	// ReachRatio is the time A's mean curve takes to reach Level x B's
	// final over the time B's takes (0 when B's time is 0). An A that
	// never reaches the level holds whenever B does; a B that never
	// reaches it fails the row.
	ReachRatio
	// Agreement is the smaller final over the larger of A and B (1 when
	// both are 0).
	Agreement
	// PlateauDev is |A's final / Level - 1|, Level being the predicted
	// plateau (0 when Level is 0).
	PlateauDev
)

// Cond is one comparison a claim's statistic x must satisfy: x Op V.
type Cond struct {
	// Op is "<", "<=", ">" or ">=".
	Op string
	// V is the threshold.
	V float64
}

func (c Cond) holds(x float64) bool {
	switch c.Op {
	case "<":
		return x < c.V
	case "<=":
		return x <= c.V
	case ">":
		return x > c.V
	case ">=":
		return x >= c.V
	}
	return false
}

// Claim is one of the paper's in-text claims as data: a statistic over
// named series of the study that carries it, and the bound it must meet.
type Claim struct {
	// ID and Statement are printed with the verdict.
	ID, Statement string
	// Stat is the statistic computed for each A series.
	Stat Stat
	// A names the series judged; the row holds only when every one does.
	A []string
	// B names the reference series (unused by PlateauDev).
	B string
	// Ordered additionally requires A's finals to be non-decreasing in
	// the order listed.
	Ordered bool
	// Level is the fraction of B's final to reach (ReachRatio) or the
	// predicted plateau (PlateauDev).
	Level float64
	// Bound lists the conditions the statistic must meet, all of them.
	Bound []Cond
}

// EvaluateClaims judges every claim row of fr's study, in order. A row
// naming a series the result lacks is an error wrapping ErrSeriesMissing.
func EvaluateClaims(fr *FigureResult) ([]Check, error) {
	checks := make([]Check, 0, len(fr.Figure.Claims))
	for _, c := range fr.Figure.Claims {
		check, err := c.judge(fr)
		if err != nil {
			return nil, err
		}
		checks = append(checks, check)
	}
	return checks, nil
}

func (c Claim) judge(fr *FigureResult) (Check, error) {
	series := func(label string) (*SeriesResult, error) {
		if s, ok := fr.SeriesByLabel(label); ok {
			return s, nil
		}
		return nil, fmt.Errorf("%w: %s / %s", ErrSeriesMissing, fr.Figure.ID, label)
	}
	var b *SeriesResult
	ref := fmt.Sprintf("predicted %.1f", c.Level)
	if c.Stat != PlateauDev {
		var err error
		if b, err = series(c.B); err != nil {
			return Check{}, err
		}
		ref = fmt.Sprintf("%s %.1f", b.Label, b.FinalMean)
		if c.Stat == ReachRatio {
			ref = b.Label + " " + fmtReach(b.Band.TimeToReachMean(c.Level*b.FinalMean))
		}
	}
	pass := true
	parts := make([]string, 0, len(c.A))
	var prev *SeriesResult
	for _, label := range c.A {
		a, err := series(label)
		if err != nil {
			return Check{}, err
		}
		ok, text := c.measure(a, b)
		if c.Ordered && prev != nil && a.FinalMean < prev.FinalMean {
			ok = false
		}
		pass = pass && ok
		parts = append(parts, text)
		prev = a
	}
	measured := strings.Join(parts, ", ") + " vs " + ref
	if c.Stat == ReachRatio {
		measured = fmt.Sprintf("level %.0f: %s", c.Level*b.FinalMean, measured)
	}
	return Check{ID: c.ID, Statement: c.Statement, Measured: measured, Pass: pass}, nil
}

// measure computes the row's statistic for one A series against b and
// reports whether it holds, with the text that shows it.
func (c Claim) measure(a, b *SeriesResult) (bool, string) {
	var x float64
	var text string
	switch c.Stat {
	case FinalRatio:
		x = ratio(a.FinalMean, b.FinalMean)
		text = fmt.Sprintf("%s %.1f (%.0f%%)", a.Label, a.FinalMean, 100*x)
	case FinalDiff:
		x = a.FinalMean - b.FinalMean
		text = fmt.Sprintf("%s %.1f", a.Label, a.FinalMean)
	case Agreement:
		x = 1
		if hi := max(a.FinalMean, b.FinalMean); hi > 0 {
			x = min(a.FinalMean, b.FinalMean) / hi
		}
		text = fmt.Sprintf("%s %.1f (agreement %.0f%%)", a.Label, a.FinalMean, 100*x)
	case PlateauDev:
		if c.Level > 0 {
			x = math.Abs(a.FinalMean/c.Level - 1)
		}
		text = fmt.Sprintf("%s %.1f (dev %.0f%%)", a.Label, a.FinalMean, 100*x)
	case ReachRatio:
		level := c.Level * b.FinalMean
		tB, okB := b.Band.TimeToReachMean(level)
		tA, okA := a.Band.TimeToReachMean(level)
		if !okA {
			return okB, a.Label + " never (contained)"
		}
		x = ratio(float64(tA), float64(tB))
		return okB && c.holds(x), fmt.Sprintf("%s %s (%.1fx)", a.Label, fmtReach(tA, okA), x)
	default:
		return false, fmt.Sprintf("%s: unknown statistic %d", a.Label, c.Stat)
	}
	return c.holds(x), text
}

// holds reports whether x meets every condition of the row's bound.
func (c Claim) holds(x float64) bool {
	for _, cond := range c.Bound {
		if !cond.holds(x) {
			return false
		}
	}
	return true
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fmtReach renders a time-to-level, or "never" when the level was not
// reached within the horizon.
func fmtReach(d time.Duration, ok bool) string {
	if !ok {
		return "never"
	}
	return "at " + d.Round(time.Minute).String()
}
