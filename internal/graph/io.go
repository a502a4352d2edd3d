package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteContactLists writes the topology in the NGCE-style contact-list format
// the paper's Möbius model consumed: a header line with the node count, then
// one line per node of the form
//
//	<node>: <neighbor> <neighbor> ...
//
// Lines are emitted for every node, including isolated ones.
func (c *CSR) WriteContactLists(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# contact lists: %d phones, %d links\n", c.N(), c.M()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d\n", c.N()); err != nil {
		return err
	}
	for u := 0; u < c.N(); u++ {
		if _, err := fmt.Fprintf(bw, "%d:", u); err != nil {
			return err
		}
		for _, v := range c.Neighbors(u) {
			if _, err := fmt.Fprintf(bw, " %d", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MaxContactListNodes bounds the declared population of a contact-list
// file, protecting the parser from pathological headers.
const MaxContactListNodes = 1_000_000

// ReadContactLists parses the format written by WriteContactLists. It
// validates reciprocity and simple-graph invariants before returning.
func ReadContactLists(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var (
		b        *CSRBuilder // nil until the node-count header
		directed = make(map[[2]int]struct{})
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if b == nil {
			n, err := strconv.Atoi(line)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node count %q: %w", lineNo, line, err)
			}
			if n > MaxContactListNodes {
				return nil, fmt.Errorf("graph: line %d: node count %d exceeds limit %d", lineNo, n, MaxContactListNodes)
			}
			b, err = NewCSRBuilder(n, 0)
			if err != nil {
				return nil, err
			}
			continue
		}
		head, rest, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("graph: line %d: missing ':' separator", lineNo)
		}
		u, err := strconv.Atoi(strings.TrimSpace(head))
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %w", lineNo, head, err)
		}
		if u < 0 || u >= b.n {
			return nil, fmt.Errorf("graph: line %d: node %d out of range", lineNo, u)
		}
		for _, f := range strings.Fields(rest) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad neighbor %q: %w", lineNo, f, err)
			}
			if v < 0 || v >= b.n {
				return nil, fmt.Errorf("graph: line %d: neighbor %d out of range", lineNo, v)
			}
			if v == u {
				return nil, fmt.Errorf("graph: line %d: node %d lists itself", lineNo, u)
			}
			key := [2]int{u, v}
			if _, dup := directed[key]; dup {
				return nil, fmt.Errorf("graph: line %d: duplicate neighbor %d for node %d", lineNo, v, u)
			}
			directed[key] = struct{}{}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read contact lists: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: empty contact-list input")
	}
	// Reciprocity: every directed pair must have its mirror, mirroring the
	// paper's reciprocal contact lists. Finalize sorts the rows, so the
	// map's order does not reach the result.
	for key := range directed {
		if _, ok := directed[[2]int{key[1], key[0]}]; !ok {
			return nil, fmt.Errorf("graph: contact lists not reciprocal: %d lists %d but not vice versa", key[0], key[1])
		}
		if key[0] < key[1] {
			if err := b.AddEdge(key[0], key[1]); err != nil {
				return nil, err
			}
		}
	}
	c, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
