package graph

import (
	"slices"
	"strings"
	"testing"
)

// FuzzReadContactLists checks the contact-list parser never panics and that
// anything it accepts satisfies the graph invariants.
func FuzzReadContactLists(f *testing.F) {
	f.Add("3\n0: 1\n1: 0\n2:\n")
	f.Add("# comment\n2\n0: 1\n1: 0\n")
	f.Add("1\n0:\n")
	f.Add("2\n0: 1 1\n")
	f.Add("")
	f.Add("x\n")
	f.Add("5\n0: 4\n4: 0\n1:\n2:\n3:\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadContactLists(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph violates invariants: %v\ninput: %q", err, input)
		}
		// Accepted graphs must round-trip.
		var sb strings.Builder
		if err := g.WriteContactLists(&sb); err != nil {
			t.Fatalf("write back: %v", err)
		}
		back, err := ReadContactLists(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d", g.N(), g.M(), back.N(), back.M())
		}
	})
}

// FuzzCSRBuilder decodes the input into a node count (first byte) and an
// arbitrary edge list (byte pairs, endpoints up to one past the last node),
// in any order and with duplicates allowed. Finalize must succeed exactly
// when Graph.AddEdge accepts every edge, and then equal FromGraph of that
// graph, offsets and targets alike.
func FuzzCSRBuilder(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 1, 2})
	f.Add([]byte{4, 0, 1, 0, 2, 0, 1})
	f.Add([]byte{4, 0, 1, 0, 2, 1, 2, 1, 0})
	f.Add([]byte{6, 5, 4, 5, 3, 4, 2, 1, 0, 3, 0})
	f.Add([]byte{3, 1, 1})
	f.Add([]byte{3, 0, 3})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 32)
		g, err := NewGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewCSRBuilder(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		graphOK, builderOK := true, true
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int(data[i])%(n+1), int(data[i+1])%(n+1)
			graphOK = g.AddEdge(u, v) == nil && graphOK
			builderOK = b.AddEdge(u, v) == nil && builderOK
		}
		var c *CSR
		if builderOK {
			c, err = b.Finalize()
			builderOK = err == nil
		}
		if graphOK != builderOK {
			t.Fatalf("Graph accepts every edge: %v; builder and Finalize: %v (err %v)", graphOK, builderOK, err)
		}
		if !graphOK {
			return
		}
		want := FromGraph(g)
		if !slices.Equal(c.offsets, want.offsets) || !slices.Equal(c.targets, want.targets) {
			t.Fatalf("Finalize gave offsets %v targets %v; FromGraph gave %v %v", c.offsets, c.targets, want.offsets, want.targets)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
