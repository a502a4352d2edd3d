package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultHotPathRoots is the built-in hot-path root set: the discrete-event
// core's fire/schedule surface and MMS delivery. Everything these can reach
// executes once per event at million-phone scale, so hotpath holds it
// allocation-free. Root specs are suffix-matched against call-graph labels
// (see MatchRoot), so they stay valid if the module path changes.
// //mvlint:hotpath annotations extend the set without touching this list.
// TestDefaultHotPathRootsDeclared fails when a spec names nothing, since
// Reach skips such a spec silently.
var DefaultHotPathRoots = []string{
	// internal/des: the event loop proper and every scheduling operation
	// the loop's handlers perform per event.
	"des.Simulation.step",
	"des.Simulation.ScheduleArgAt",
	"des.Simulation.ScheduleArgAfter",
	"des.Simulation.Cancel",
	// internal/mms: per-message delivery, plus the sharded window step
	// (outbox bucketing by destination, the barrier detection merge and the
	// hand-off of the shard tasks), which runs once per window over batches
	// proportional to traffic. ShardSet.shardBarrier, a shard's barrier
	// task (canonical sort and injection of its copies, then its barrier
	// hooks), runs as a pool task submitted as a func value, which the call
	// graph does not follow from step, so it is a root of its own.
	"mms.Network.transit",
	"mms.Network.deliverCopy",
	"mms.Network.read",
	"mms.ShardSet.step",
	"mms.ShardSet.shardBarrier",
	// The send path: Network.Send and the virus engine's per-attempt
	// send run from des.ArgHandler func values, which the call graph does
	// not follow, so each is a root of its own. Send reaches the send
	// controllers and gateway filters through interface dispatch.
	"mms.Network.Send",
	"virus.Engine.sendOnce",
	// internal/response: the patch wave's per-shard sort and release,
	// which a shard's barrier hook runs once per window and which
	// schedules one event per patched phone.
	"response.Immunizer.release",
}

// MatchRoot reports whether a call-graph label satisfies a root spec. A
// spec matches its label exactly, or as a path-boundary suffix: spec
// "des.Simulation.step" matches label "repro/internal/des.Simulation.step".
func MatchRoot(label, spec string) bool {
	return label == spec || strings.HasSuffix(label, "/"+spec)
}

// whyLink records how reachability first arrived at a node.
type whyLink struct {
	// from is the caller's key; empty for roots.
	from string
	// edge is the edge that reached the node (zero for roots).
	edge CGEdge
	// root is the root spec that introduced the node (set for roots only).
	root string
}

// Reachability is the transitive closure of the call graph from a root set,
// with provenance for -why explanations.
type Reachability struct {
	g       *CallGraph
	reached map[string]whyLink
}

// Reach computes reachability from every node matching the given specs plus
// every //mvlint:hotpath-annotated declaration. A nil specs slice means
// DefaultHotPathRoots. Traversal order is sorted, so provenance (and thus
// -why output) is deterministic.
func (g *CallGraph) Reach(specs []string) *Reachability {
	if specs == nil {
		specs = DefaultHotPathRoots
	}
	r := &Reachability{g: g, reached: map[string]whyLink{}}
	var frontier []string
	for _, key := range sortedKeys(g.Nodes) {
		node := g.Nodes[key]
		rootSpec := ""
		if node.HotAnnotated {
			rootSpec = hotAnnotation
		}
		for _, spec := range specs {
			if MatchRoot(node.Label, spec) {
				rootSpec = spec
				break
			}
		}
		if rootSpec != "" {
			r.reached[key] = whyLink{root: rootSpec}
			frontier = append(frontier, key)
		}
	}
	for len(frontier) > 0 {
		key := frontier[0]
		frontier = frontier[1:]
		node := g.Nodes[key]
		for _, e := range node.Calls {
			if _, done := r.reached[e.To]; done {
				continue
			}
			if inSpans(node.cold.ctorArgs, e.Pos) {
				continue // runs only while building a cold error exit
			}
			if _, known := g.Nodes[e.To]; !known {
				continue // stdlib or unloaded callee: nothing to check there
			}
			r.reached[e.To] = whyLink{from: key, edge: e}
			frontier = append(frontier, e.To)
		}
	}
	return r
}

// Reachable reports whether the node with the given key is reachable from
// the root set.
func (r *Reachability) Reachable(key string) bool {
	_, ok := r.reached[key]
	return ok
}

// Nodes returns the keys of all reachable nodes, sorted.
func (r *Reachability) Nodes() []string {
	keys := make([]string, 0, len(r.reached))
	for k := range r.reached {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Why explains how the function named by spec (a key, a label, or a root-
// style suffix) became reachable: one line per hop from the root down to the
// function, with call positions. It returns nil if the spec names no
// reachable node.
func (r *Reachability) Why(spec string) []string {
	key := r.resolve(spec)
	if key == "" {
		return nil
	}
	// Walk provenance back to the root, then render top-down.
	var chain []string
	for cur := key; ; {
		link := r.reached[cur]
		node := r.g.Nodes[cur]
		if link.from == "" {
			chain = append(chain, fmt.Sprintf("%s  [root: %s]", node.Label, link.root))
			break
		}
		from := r.g.Nodes[link.from]
		pos := from.Pkg.Fset.Position(link.edge.Pos)
		chain = append(chain, fmt.Sprintf("%s  [%s from %s at %s:%d]",
			node.Label, edgeVerb(link.edge.Kind), from.Label, pos.Filename, pos.Line))
		cur = link.from
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// resolve maps a user-supplied spec to a reachable node key: exact key
// first, then exact label, then root-style suffix (shortest label wins so
// the answer is stable).
func (r *Reachability) resolve(spec string) string {
	if _, ok := r.reached[spec]; ok {
		return spec
	}
	best := ""
	for _, key := range r.Nodes() {
		label := r.g.Nodes[key].Label
		if label == spec {
			return key
		}
		if MatchRoot(label, spec) && (best == "" || len(label) < len(r.g.Nodes[best].Label)) {
			best = key
		}
	}
	return best
}

// edgeVerb renders an edge kind for -why output.
func edgeVerb(kind string) string {
	switch kind {
	case "iface":
		return "interface dispatch"
	case "closure":
		return "closure created"
	case "ref":
		return "value taken"
	default:
		return "called"
	}
}
