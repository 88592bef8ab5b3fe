// Package yamlite implements the small YAML subset used by
// Timeloop-style specification files (Fig. 3 of the paper): block
// mappings, block sequences (including inline "- key: value" items),
// and plain/quoted scalars, with '#' comments. Anchors, aliases, flow
// collections (beyond the empty {} and [] blocks Encode writes),
// multi-line scalars, and multi-document streams are deliberately out
// of scope.
package yamlite

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates node types.
type Kind int

const (
	// Scalar is a leaf string/number/bool.
	Scalar Kind = iota
	// Map is an ordered key → node mapping.
	Map
	// Seq is an ordered list of nodes.
	Seq
)

// ErrParse reports malformed input.
var ErrParse = errors.New("yamlite: parse error")

// ErrType reports a type-mismatched accessor.
var ErrType = errors.New("yamlite: type mismatch")

// Node is one YAML value.
type Node struct {
	Kind  Kind
	Value string // Scalar only
	keys  []string
	vals  map[string]*Node
	Items []*Node // Seq only
}

// NewScalar builds a scalar node.
func NewScalar(v string) *Node { return &Node{Kind: Scalar, Value: v} }

// NewInt builds an integer scalar.
func NewInt(v int64) *Node { return NewScalar(strconv.FormatInt(v, 10)) }

// NewFloat builds a float scalar.
func NewFloat(v float64) *Node { return NewScalar(strconv.FormatFloat(v, 'g', -1, 64)) }

// NewBool builds a boolean scalar.
func NewBool(v bool) *Node { return NewScalar(strconv.FormatBool(v)) }

// NewMap builds an empty mapping.
func NewMap() *Node { return &Node{Kind: Map, vals: map[string]*Node{}} }

// NewSeq builds an empty sequence.
func NewSeq(items ...*Node) *Node { return &Node{Kind: Seq, Items: items} }

// Set inserts or replaces a key (preserving first-insertion order) and
// returns the node for chaining.
func (n *Node) Set(key string, v *Node) *Node {
	if n.Kind != Map {
		panic("yamlite: Set on non-map")
	}
	if _, ok := n.vals[key]; !ok {
		n.keys = append(n.keys, key)
	}
	n.vals[key] = v
	return n
}

// Get returns the value for key, or nil.
func (n *Node) Get(key string) *Node {
	if n == nil || n.Kind != Map {
		return nil
	}
	return n.vals[key]
}

// Keys returns the map keys in insertion order.
func (n *Node) Keys() []string {
	return append([]string(nil), n.keys...)
}

// Append adds an item to a sequence.
func (n *Node) Append(v *Node) *Node {
	if n.Kind != Seq {
		panic("yamlite: Append on non-seq")
	}
	n.Items = append(n.Items, v)
	return n
}

// Str returns the scalar string.
func (n *Node) Str() (string, error) {
	if n == nil || n.Kind != Scalar {
		return "", ErrType
	}
	return n.Value, nil
}

// Int parses the scalar as int64.
func (n *Node) Int() (int64, error) {
	s, err := n.Str()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not an integer", ErrType, s)
	}
	return v, nil
}

// Float parses the scalar as float64.
func (n *Node) Float() (float64, error) {
	s, err := n.Str()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q is not a number", ErrType, s)
	}
	return v, nil
}

// Bool parses the scalar as bool.
func (n *Node) Bool() (bool, error) {
	s, err := n.Str()
	if err != nil {
		return false, err
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("%w: %q is not a bool", ErrType, s)
	}
	return v, nil
}

// line is one significant input line.
type line struct {
	num     int
	indent  int
	content string
}

// Parse parses a document into its root node.
func Parse(src string) (*Node, error) {
	var lines []line
	for i, raw := range strings.Split(src, "\n") {
		t := stripComment(raw)
		if strings.TrimSpace(t) == "" {
			continue
		}
		trimmed := strings.TrimLeft(t, " ")
		if strings.HasPrefix(trimmed, "\t") {
			return nil, fmt.Errorf("%w: line %d: tabs are not allowed in indentation", ErrParse, i+1)
		}
		lines = append(lines, line{num: i + 1, indent: len(t) - len(trimmed), content: strings.TrimSpace(trimmed)})
	}
	if len(lines) == 0 {
		return NewMap(), nil
	}
	p := &parser{lines: lines}
	node, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, fmt.Errorf("%w: line %d: unexpected content", ErrParse, p.lines[p.pos].num)
	}
	return node, nil
}

// stripComment removes a trailing comment, respecting quotes.
func stripComment(s string) string {
	inS, inD := false, false
	for i, r := range s {
		switch r {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if !inS && !inD && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

// peek returns the current line, or nil.
func (p *parser) peek() *line {
	if p.pos >= len(p.lines) {
		return nil
	}
	return &p.lines[p.pos]
}

// parseBlock parses a map or sequence whose items sit at the given indent.
func (p *parser) parseBlock(indent int) (*Node, error) {
	l := p.peek()
	if l == nil {
		return nil, fmt.Errorf("%w: unexpected end of input", ErrParse)
	}
	switch {
	case l.content == "{}": // Encode's empty map
		p.pos++
		return NewMap(), nil
	case l.content == "[]": // Encode's empty sequence
		p.pos++
		return NewSeq(), nil
	case strings.HasPrefix(l.content, "- ") || l.content == "-":
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

func (p *parser) parseSeq(indent int) (*Node, error) {
	seq := NewSeq()
	for {
		l := p.peek()
		if l == nil || l.indent != indent || (!strings.HasPrefix(l.content, "- ") && l.content != "-") {
			if l != nil && l.indent > indent {
				return nil, fmt.Errorf("%w: line %d: bad indentation", ErrParse, l.num)
			}
			return seq, nil
		}
		if l.content == "-" {
			p.pos++
			child, err := p.parseDeeper(indent)
			if err != nil {
				return nil, err
			}
			seq.Append(child)
			continue
		}
		rest := strings.TrimSpace(l.content[2:])
		if rest == "{}" { // Encode's empty map as an item
			p.pos++
			seq.Append(NewMap())
			continue
		}
		if isMapEntry(rest) {
			// Inline map item: re-interpret the remainder as a virtual
			// line indented past the dash, then continue the map block.
			p.lines[p.pos] = line{num: l.num, indent: indent + 2, content: rest}
			child, err := p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
			seq.Append(child)
			continue
		}
		p.pos++
		seq.Append(NewScalar(unquote(rest)))
	}
}

func (p *parser) parseMap(indent int) (*Node, error) {
	m := NewMap()
	for {
		l := p.peek()
		if l == nil || l.indent != indent || !isMapEntry(l.content) {
			if l != nil && l.indent > indent {
				return nil, fmt.Errorf("%w: line %d: bad indentation", ErrParse, l.num)
			}
			return m, nil
		}
		key, rest, err := splitKey(l.content)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrParse, l.num, err)
		}
		if _, exists := m.vals[key]; exists {
			return nil, fmt.Errorf("%w: line %d: duplicate key %q", ErrParse, l.num, key)
		}
		p.pos++
		if rest != "" {
			m.Set(key, NewScalar(unquote(rest)))
			continue
		}
		next := p.peek()
		if next == nil || next.indent <= indent {
			m.Set(key, NewScalar("")) // empty value
			continue
		}
		child, err := p.parseBlock(next.indent)
		if err != nil {
			return nil, err
		}
		m.Set(key, child)
	}
}

// parseDeeper parses the block nested under the current position, which
// must be indented more than parentIndent.
func (p *parser) parseDeeper(parentIndent int) (*Node, error) {
	l := p.peek()
	if l == nil || l.indent <= parentIndent {
		return NewScalar(""), nil
	}
	return p.parseBlock(l.indent)
}

// isMapEntry reports whether the content looks like "key: ..." with the
// colon outside quotes.
func isMapEntry(s string) bool {
	_, _, err := splitKey(s)
	return err == nil
}

func splitKey(s string) (key, rest string, err error) {
	inS, inD := false, false
	for i, r := range s {
		switch r {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case ':':
			if inS || inD {
				continue
			}
			if i+1 == len(s) {
				return unquote(strings.TrimSpace(s[:i])), "", nil
			}
			if s[i+1] == ' ' {
				return unquote(strings.TrimSpace(s[:i])), strings.TrimSpace(s[i+2:]), nil
			}
		}
	}
	return "", "", errors.New("no key separator")
}

func unquote(s string) string {
	if len(s) >= 2 {
		switch {
		case s[0] == '\'' && s[len(s)-1] == '\'':
			// Inside single quotes '' is a quote, as quote writes it.
			return strings.ReplaceAll(s[1:len(s)-1], "''", "'")
		case s[0] == '"' && s[len(s)-1] == '"':
			return s[1 : len(s)-1]
		}
	}
	return s
}

// quote returns a scalar or key as written on output: single-quoted,
// with ' doubled, when it would otherwise read back differently.
func quote(s string) string {
	if s != "" && !strings.ContainsAny(s, ":#{}[]'\"\n") &&
		!strings.HasPrefix(s, "- ") && s == strings.TrimSpace(s) {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// Encode serializes the node as YAML text.
func Encode(n *Node) string {
	var b strings.Builder
	encode(&b, n, 0, false)
	return b.String()
}

func encode(b *strings.Builder, n *Node, indent int, inline bool) {
	pad := strings.Repeat(" ", indent)
	switch n.Kind {
	case Scalar:
		b.WriteString(quote(n.Value))
		b.WriteByte('\n')
	case Map:
		first := true
		for _, k := range n.keys {
			v := n.vals[k]
			if !(inline && first) {
				b.WriteString(pad)
			}
			first = false
			b.WriteString(quote(k))
			b.WriteString(":")
			switch v.Kind {
			case Scalar:
				b.WriteString(" ")
				encode(b, v, 0, false)
			default:
				b.WriteByte('\n')
				encode(b, v, indent+2, false)
			}
		}
		if len(n.keys) == 0 {
			if !inline {
				b.WriteString(pad)
			}
			b.WriteString("{}\n")
		}
	case Seq:
		for _, it := range n.Items {
			b.WriteString(pad)
			b.WriteString("- ")
			switch it.Kind {
			case Scalar:
				encode(b, it, 0, false)
			case Map:
				encode(b, it, indent+2, true)
			case Seq:
				b.WriteByte('\n')
				encode(b, it, indent+2, false)
			}
		}
		if len(n.Items) == 0 {
			b.WriteString(pad)
			b.WriteString("[]\n")
		}
	}
}

// Equal reports deep equality of two nodes (map key order ignored).
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Scalar:
		return a.Value == b.Value
	case Map:
		if len(a.keys) != len(b.keys) {
			return false
		}
		ak := append([]string(nil), a.keys...)
		bk := append([]string(nil), b.keys...)
		sort.Strings(ak)
		sort.Strings(bk)
		for i := range ak {
			if ak[i] != bk[i] {
				return false
			}
			if !Equal(a.vals[ak[i]], b.vals[ak[i]]) {
				return false
			}
		}
		return true
	case Seq:
		if len(a.Items) != len(b.Items) {
			return false
		}
		for i := range a.Items {
			if !Equal(a.Items[i], b.Items[i]) {
				return false
			}
		}
		return true
	}
	return false
}
