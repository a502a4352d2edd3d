package graph

import (
	"math"
	"sort"
)

// Components returns the connected components as slices of node ids, largest
// first.
func (c *CSR) Components() [][]int {
	n := c.N()
	seen := make([]bool, n)
	var comps [][]int
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, start)
		seen[start] = true
		comp := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range c.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, int(v))
					comp = append(comp, int(v))
				}
			}
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// GiantComponentFraction returns the fraction of nodes in the largest
// connected component (0 for an empty graph).
func (c *CSR) GiantComponentFraction() float64 {
	if c.N() == 0 {
		return 0
	}
	comps := c.Components()
	return float64(len(comps[0])) / float64(c.N())
}

// DegreeHistogram returns counts[d] = number of nodes of degree d.
func (c *CSR) DegreeHistogram() []int {
	maxDeg := 0
	for u := 0; u < c.N(); u++ {
		maxDeg = max(maxDeg, c.Degree(u))
	}
	counts := make([]int, maxDeg+1)
	for u := 0; u < c.N(); u++ {
		counts[c.Degree(u)]++
	}
	return counts
}

// DegreeStats summarizes the degree sequence.
type DegreeStats struct {
	Mean   float64
	Median float64
	Min    int
	Max    int
	// TailExponent is the maximum-likelihood power-law exponent fitted to
	// degrees at or above the mean (Hill estimator); NaN when undefined.
	TailExponent float64
}

// ComputeDegreeStats returns summary statistics of the degree sequence.
func (c *CSR) ComputeDegreeStats() DegreeStats {
	n := c.N()
	if n == 0 {
		return DegreeStats{TailExponent: math.NaN()}
	}
	sorted := make([]int, n)
	for u := range sorted {
		sorted[u] = c.Degree(u)
	}
	sort.Ints(sorted)
	mean := float64(len(c.targets)) / float64(n)
	median := float64(sorted[n/2])
	if n%2 == 0 {
		median = (float64(sorted[n/2-1]) + float64(sorted[n/2])) / 2
	}
	return DegreeStats{
		Mean:         mean,
		Median:       median,
		Min:          sorted[0],
		Max:          sorted[n-1],
		TailExponent: hillExponent(sorted, mean),
	}
}

// hillExponent fits alpha via the Hill MLE over degrees >= xmin (taken as
// the mean degree): alpha = 1 + k / sum(ln(d_i/xmin)).
func hillExponent(sortedDegrees []int, xmin float64) float64 {
	if xmin < 1 {
		xmin = 1
	}
	sumLog := 0.0
	k := 0
	for _, d := range sortedDegrees {
		if float64(d) >= xmin && d > 0 {
			sumLog += math.Log(float64(d) / xmin)
			k++
		}
	}
	if k == 0 || sumLog == 0 {
		return math.NaN()
	}
	return 1 + float64(k)/sumLog
}

// ClusteringCoefficient returns the mean local clustering coefficient: the
// average over nodes of (closed triangles at the node) / (possible pairs of
// neighbors). Nodes with degree < 2 contribute 0, matching NGCE's report.
func (c *CSR) ClusteringCoefficient() float64 {
	n := c.N()
	if n == 0 {
		return 0
	}
	total := 0.0
	for u := 0; u < n; u++ {
		nbrs := c.Neighbors(u)
		d := len(nbrs)
		if d < 2 {
			continue
		}
		links := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if c.HasEdge(int(nbrs[i]), int(nbrs[j])) {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(d*(d-1))
	}
	return total / float64(n)
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's r). It is NaN for graphs with no edges or zero variance.
func (c *CSR) DegreeAssortativity() float64 {
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	m := 0
	for u := 0; u < c.N(); u++ {
		du := float64(c.Degree(u))
		for _, v := range c.Neighbors(u) {
			if int(v) <= u {
				continue // count each undirected edge once, both orientations below
			}
			dv := float64(c.Degree(int(v)))
			// Symmetrize: treat the edge as both (du,dv) and (dv,du).
			sumXY += 2 * du * dv
			sumX += du + dv
			sumY += du + dv
			sumX2 += du*du + dv*dv
			sumY2 += du*du + dv*dv
			m += 2
		}
	}
	if m == 0 {
		return math.NaN()
	}
	n := float64(m)
	cov := sumXY/n - (sumX/n)*(sumY/n)
	varX := sumX2/n - (sumX/n)*(sumX/n)
	varY := sumY2/n - (sumY/n)*(sumY/n)
	if varX <= 0 || varY <= 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(varX*varY)
}

// MeanShortestPathSample estimates the mean shortest-path length in the
// largest component by BFS from up to sources randomly-ordered start nodes
// (deterministic order: node id). Returns 0 for graphs without edges.
func (c *CSR) MeanShortestPathSample(sources int) float64 {
	comps := c.Components()
	if len(comps) == 0 || len(comps[0]) < 2 {
		return 0
	}
	giant := comps[0]
	if sources > len(giant) {
		sources = len(giant)
	}
	sort.Ints(giant)
	totalDist := 0.0
	pairs := 0
	dist := make([]int, c.N())
	for s := 0; s < sources; s++ {
		start := giant[s]
		for i := range dist {
			dist[i] = -1
		}
		dist[start] = 0
		queue := []int{start}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range c.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, int(v))
					totalDist += float64(dist[v])
					pairs++
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return totalDist / float64(pairs)
}
