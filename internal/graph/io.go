package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode"
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
//
// Each node's listed neighbours are kept in one row, sorted once after
// parsing, so the parser holds about as many bytes as the CSR it returns:
// a duplicate listing shows up as two equal adjacent entries, and
// reciprocity is a binary search in the mirror row. Errors found after
// parsing name the smallest offending (node, neighbour) pair.
func ReadContactLists(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var (
		rows    [][]uint32 // nil until the node-count header
		scratch []uint32   // one line's neighbours, reused
		listed  int        // directed pairs across all rows
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		// Lines are parsed in the scanner's buffer: a string per line would
		// cost as many bytes again as the CSR.
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if rows == nil {
			n, err := strconv.Atoi(string(line))
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node count %q: %w", lineNo, line, err)
			}
			if n > MaxContactListNodes {
				return nil, fmt.Errorf("graph: line %d: node count %d exceeds limit %d", lineNo, n, MaxContactListNodes)
			}
			if n < 0 {
				return nil, errors.New("graph: negative node count")
			}
			rows = make([][]uint32, n)
			continue
		}
		head, rest, found := bytes.Cut(line, []byte{':'})
		if !found {
			return nil, fmt.Errorf("graph: line %d: missing ':' separator", lineNo)
		}
		u, err := strconv.Atoi(string(bytes.TrimSpace(head)))
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %w", lineNo, head, err)
		}
		if u < 0 || u >= len(rows) {
			return nil, fmt.Errorf("graph: line %d: node %d out of range", lineNo, u)
		}
		scratch = scratch[:0]
		for f, rest := nextField(rest); len(f) > 0; f, rest = nextField(rest) {
			v, err := strconv.Atoi(string(f))
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad neighbor %q: %w", lineNo, f, err)
			}
			if v < 0 || v >= len(rows) {
				return nil, fmt.Errorf("graph: line %d: neighbor %d out of range", lineNo, v)
			}
			if v == u {
				return nil, fmt.Errorf("graph: line %d: node %d lists itself", lineNo, u)
			}
			scratch = append(scratch, uint32(v))
		}
		rows[u] = append(rows[u], scratch...)
		listed += len(scratch)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read contact lists: %w", err)
	}
	if rows == nil {
		return nil, fmt.Errorf("graph: empty contact-list input")
	}
	for u, row := range rows {
		slices.Sort(row)
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("graph: duplicate neighbor %d for node %d", row[i], u)
			}
		}
	}
	// Reciprocity: every directed pair must have its mirror, mirroring the
	// paper's reciprocal contact lists. Each edge goes to the builder once,
	// from its smaller end.
	b, err := NewCSRBuilder(len(rows), listed/2)
	if err != nil {
		return nil, err
	}
	for u, row := range rows {
		for _, v := range row {
			if _, ok := slices.BinarySearch(rows[v], uint32(u)); !ok {
				return nil, fmt.Errorf("graph: contact lists not reciprocal: %d lists %d but not vice versa", u, v)
			}
			if u < int(v) {
				if err := b.AddEdge(u, int(v)); err != nil {
					return nil, err
				}
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

// nextField splits s into its first space-separated field and the rest, as
// bytes.Fields would, without allocating a slice of fields.
func nextField(s []byte) (field, rest []byte) {
	s = bytes.TrimLeftFunc(s, unicode.IsSpace)
	if i := bytes.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, nil
}
