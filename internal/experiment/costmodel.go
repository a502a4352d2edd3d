package experiment

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Section 5.3 notes the results "would also be valuable in conjunction with
// implementation cost data for each response mechanism", while declining to
// invent provider-specific costs. This file supplies the machinery: given
// user-provided cost figures for a set of response options, it runs each
// option and computes the cost-effectiveness frontier (the options not
// dominated by a cheaper-and-at-least-as-effective alternative).

// CostedOption is one deployable response configuration with its
// provider-specific cost (any consistent unit).
type CostedOption struct {
	// Label names the option.
	Label string
	// Cost is the option's implementation cost (user-supplied).
	Cost float64
	// Config is the full scenario with the option attached.
	Config core.Config
}

// FrontierPoint is one evaluated option.
type FrontierPoint struct {
	Label     string
	Cost      float64
	Final     float64
	Prevented float64
	// Efficient marks options on the cost-effectiveness frontier: no
	// other option prevents at least as many infections for less.
	Efficient bool
}

// CostFrontier evaluates the options against the baseline and marks the
// efficient ones. Options must be non-empty with non-negative costs. The
// baseline and every option run as the series of one figure on one worker
// pool (opts.Parallelism wide).
func CostFrontier(baseline core.Config, options []CostedOption, opts core.Options) ([]FrontierPoint, error) {
	if len(options) == 0 {
		return nil, errors.New("experiment: cost frontier needs at least one option")
	}
	for _, o := range options {
		if o.Cost < 0 {
			return nil, fmt.Errorf("experiment: option %q has negative cost", o.Label)
		}
	}
	fig := Figure{ID: "cost-frontier", Title: "Cost-effectiveness frontier",
		Series: []Series{{Label: "Baseline", Config: baseline}}}
	for _, o := range options {
		fig.Series = append(fig.Series, Series{Label: o.Label, Config: o.Config})
	}
	fr, err := RunFigure(fig, opts)
	if err != nil {
		return nil, err
	}
	base := fr.Series[0].FinalMean

	points := make([]FrontierPoint, 0, len(options))
	for i, o := range options {
		final := fr.Series[1+i].FinalMean
		points = append(points, FrontierPoint{
			Label:     o.Label,
			Cost:      o.Cost,
			Final:     final,
			Prevented: base - final,
		})
	}
	markEfficient(points)
	return points, nil
}

// markEfficient flags the non-dominated points: sorted by cost, a point is
// efficient iff it prevents strictly more than every cheaper point.
func markEfficient(points []FrontierPoint) {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := points[order[a]], points[order[b]]
		switch {
		case pa.Cost < pb.Cost:
			return true
		case pa.Cost > pb.Cost:
			return false
		}
		return pa.Prevented > pb.Prevented
	})
	best := -1.0
	for _, idx := range order {
		if points[idx].Prevented > best {
			points[idx].Efficient = true
			best = points[idx].Prevented
		}
	}
}
