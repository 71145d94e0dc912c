// Package relation provides the flat relational substrate used throughout
// the FDB engine: attributes, schemas, dictionary-encoded values, in-memory
// relations, sorting, and basic relational algebra used by the baselines and
// by tests as ground truth.
//
// The paper's experiments hold each data value in an 8-byte integer; string
// data is supported through per-database dictionary encoding (see Dict), so
// the engine core only ever manipulates Value (int64). Each attribute has
// one Kind, integer or string, and the kind alone says what a value means:
// an integer attribute's value is the integer, a string attribute's value
// is a dictionary code. Cells render through AppendCell and Cell, which
// take the kind.
package relation

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Value is a single data value. All engine-internal values are int64; string
// attributes are dictionary-encoded (see Dict). A singleton <A:v> of the
// paper holds exactly one Value.
type Value int64

// Attribute names a column. Attributes are global to a database: two
// relations sharing an attribute name do NOT implicitly join (joins are
// explicit equalities); names are only identifiers.
type Attribute string

// Schema is an ordered list of distinct attributes.
type Schema []Attribute

// Index returns the position of a in s, or -1 if absent.
func (s Schema) Index(a Attribute) int {
	for i, b := range s {
		if a == b {
			return i
		}
	}
	return -1
}

// Contains reports whether a is part of the schema.
func (s Schema) Contains(a Attribute) bool { return s.Index(a) >= 0 }

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two schemas have the same attributes in the same
// order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Validate returns an error if the schema has duplicate attributes or empty
// names.
func (s Schema) Validate() error {
	seen := make(map[Attribute]bool, len(s))
	for _, a := range s {
		if a == "" {
			return fmt.Errorf("relation: empty attribute name in schema %v", s)
		}
		if seen[a] {
			return fmt.Errorf("relation: duplicate attribute %q in schema", a)
		}
		seen[a] = true
	}
	return nil
}

// AttrSet is a set of attributes, used for dependency sets and projections.
type AttrSet map[Attribute]bool

// NewAttrSet builds a set from the given attributes.
func NewAttrSet(attrs ...Attribute) AttrSet {
	s := make(AttrSet, len(attrs))
	for _, a := range attrs {
		s[a] = true
	}
	return s
}

// Add inserts a into the set.
func (s AttrSet) Add(a Attribute) { s[a] = true }

// Has reports membership.
func (s AttrSet) Has(a Attribute) bool { return s[a] }

// Union returns a new set with the elements of both.
func (s AttrSet) Union(o AttrSet) AttrSet {
	out := make(AttrSet, len(s)+len(o))
	for a := range s {
		out[a] = true
	}
	for a := range o {
		out[a] = true
	}
	return out
}

// Intersects reports whether the two sets share an element.
func (s AttrSet) Intersects(o AttrSet) bool {
	if len(o) < len(s) {
		s, o = o, s
	}
	for a := range s {
		if o[a] {
			return true
		}
	}
	return false
}

// Clone returns a copy of the set.
func (s AttrSet) Clone() AttrSet {
	out := make(AttrSet, len(s))
	for a := range s {
		out[a] = true
	}
	return out
}

// Sorted returns the set's attributes in lexicographic order.
func (s AttrSet) Sorted() []Attribute {
	out := make([]Attribute, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dict dictionary-encodes strings as Values. It is the bridge between
// human-readable data (e.g. the grocery example of the paper's Figure 1) and
// the integer-only engine core. A Dict is safe for concurrent use: encoding
// a constant mid-query (e.g. binding a string parameter) may race with
// inserts and with result decoding.
type Dict struct {
	mu   sync.RWMutex
	toID map[string]Value
	toS  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{toID: make(map[string]Value)}
}

// NewDictFromStrings reconstructs a dictionary from a previously assigned
// code table (code i ↔ strs[i], the layout Snapshot returns): the bridge a
// persisted database uses to reopen with the exact encoding its stored
// values were written under. Duplicate strings are rejected — two codes for
// one string would make Encode nondeterministic.
func NewDictFromStrings(strs []string) (*Dict, error) {
	d := &Dict{toID: make(map[string]Value, len(strs)), toS: append([]string(nil), strs...)}
	for i, s := range strs {
		if _, dup := d.toID[s]; dup {
			return nil, fmt.Errorf("relation: duplicate dictionary string %q", s)
		}
		d.toID[s] = Value(i)
	}
	return d, nil
}

// Encode returns the Value for s, assigning a fresh id on first use.
func (d *Dict) Encode(s string) Value {
	d.mu.RLock()
	v, ok := d.toID[s]
	d.mu.RUnlock()
	if ok {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.toID[s]; ok {
		return v
	}
	v = Value(len(d.toS))
	d.toID[s] = v
	d.toS = append(d.toS, s)
	return v
}

// Lookup returns the Value previously assigned to s without assigning one
// on a miss — the read-path counterpart of Encode. Pure read paths (query
// constants, parameter binds) must use Lookup: minting a code for a string
// that only ever appears in a comparison would mutate shared state during
// snapshot-pinned reads.
func (d *Dict) Lookup(s string) (Value, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, ok := d.toID[s]
	return v, ok
}

// Decode returns the string assigned to code v, or v's decimal form if
// this dictionary never assigned it: Cell for a string attribute. Rendering
// many values, take one Snapshot and use Cell.
func (d *Dict) Decode(v Value) string { return Cell(d.Snapshot(), v, KindStr) }

// Kind is an attribute's value space. The first write into a relation fixes
// the kind of each of its attributes, and every later value, constant,
// parameter and equality over the attribute must be of that kind.
type Kind uint8

// The kinds. An attribute whose relation was never written has none yet.
const (
	KindNone Kind = iota
	KindInt
	KindStr
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "integer"
	case KindStr:
		return "string"
	}
	return "unset"
}

// AppendCell appends the rendering of value v of an attribute of kind k
// under snap (a Snapshot) to dst: a string attribute's value renders as the
// string snap assigns to it, any other value (and a code snap does not
// cover) in decimal. Every surface that renders a cell goes through it or
// Cell, so no two can render one differently.
func AppendCell(dst []byte, snap []string, v Value, k Kind) []byte {
	if s, ok := str(snap, v, k); ok {
		return append(dst, s...)
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// Cell is AppendCell as a string: a string attribute's value costs no
// allocation.
func Cell(snap []string, v Value, k Kind) string {
	if s, ok := str(snap, v, k); ok {
		return s
	}
	return strconv.FormatInt(int64(v), 10)
}

// str returns the string snap assigns to v when v is a string attribute's
// value.
func str(snap []string, v Value, k Kind) (string, bool) {
	if k == KindStr && v >= 0 && int64(v) < int64(len(snap)) {
		return snap[v], true
	}
	return "", false
}

// Snapshot returns a read-only view of the assigned strings, indexed by
// code. Codes are append-only and existing entries never change, so the
// view stays valid (if incomplete) under concurrent Encodes — it lets hot
// comparison loops avoid a lock round-trip per value.
func (d *Dict) Snapshot() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.toS[:len(d.toS):len(d.toS)]
}

// Len returns the number of distinct encoded strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.toS)
}
