// Package relation provides the flat relational substrate used throughout
// the FDB engine: attributes, schemas, dictionary-encoded values, in-memory
// relations, sorting, and basic relational algebra used by the baselines and
// by tests as ground truth.
//
// The paper's experiments hold each data value in an 8-byte integer; string
// data is supported through per-database dictionary encoding (see Dict), so
// the engine core only ever manipulates Value (int64).
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

// Decode returns the string for v, or a numeric rendering if v was never
// assigned by this dictionary. Rendering many values, take one Snapshot and
// use DecodeIn: one lock for the lot, and every value rendered against the
// same code table.
func (d *Dict) Decode(v Value) string { return DecodeIn(d.Snapshot(), v) }

// AppendDecoded appends v's rendering under snap (a Snapshot) to dst: the
// string snap assigns to code v, or v's decimal form when snap does not
// cover it (DecodeValue). Decode, DecodeIn and the wire's reply writer all
// go through it, so no two surfaces can render a cell differently.
func AppendDecoded(dst []byte, snap []string, v Value) []byte {
	if d := DecodeValue(snap, v); d.IsStr {
		return append(dst, d.Str...)
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

// DecodeIn is AppendDecoded as a string: an assigned code costs no
// allocation, a decimal rendering one.
func DecodeIn(snap []string, v Value) string {
	if d := DecodeValue(snap, v); d.IsStr {
		return d.Str
	}
	var buf [20]byte
	return string(AppendDecoded(buf[:0], snap, v))
}

// Decoded is a value as results show it under one dictionary snapshot: the
// value itself (Int) and, when the snapshot assigns its code a string, that
// string (Str, IsStr); a value without one is the integer Int.
type Decoded struct {
	Int   Value
	Str   string
	IsStr bool
}

// DecodeValue is the one rule for whether v is a dictionary string under
// snap: it is when snap assigns its code a string, and an integer
// otherwise. How a cell renders (AppendDecoded), how ORDER BY sorts and how
// a range selection on a string compares (Decoded.Less) all follow it.
func DecodeValue(snap []string, v Value) Decoded {
	if v >= 0 && int64(v) < int64(len(snap)) {
		return Decoded{Int: v, Str: snap[v], IsStr: true}
	}
	return Decoded{Int: v}
}

// Less is the order of decoded values: integers numerically, strings
// lexicographically, and every integer before every string.
func (a Decoded) Less(b Decoded) bool {
	if a.IsStr && b.IsStr {
		return a.Str < b.Str
	}
	if a.IsStr == b.IsStr {
		return a.Int < b.Int
	}
	return b.IsStr
}

// Compare is Less as a three-way comparison.
func (a Decoded) Compare(b Decoded) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
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
