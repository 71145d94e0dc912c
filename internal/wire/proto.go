package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	fdb "repro"
	"repro/internal/relation"
)

// Protocol error codes carried by RespErr bodies. Codes are wire-stable;
// the message is advisory text.
const (
	CodeBadRequest = byte(1) // malformed frame body or unknown verb
	CodeQuery      = byte(2) // the engine rejected or failed the request
	CodeOverload   = byte(3) // admission queue full: request shed
	CodeTimeout    = byte(4) // per-request timeout exceeded
	CodeDraining   = byte(5) // server shutting down; no new requests
	CodeUnknown    = byte(6) // stale statement or snapshot handle
	CodeInternal   = byte(7) // the request's goroutine panicked; the panic was contained
)

// Error is a server-reported protocol error.
type Error struct {
	Code byte
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: [%d] %s", e.Code, e.Msg) }

// Comparison operators, wire-stable (independent of the engine's internal
// numbering).
const (
	OpEQ = byte(0)
	OpNE = byte(1)
	OpLT = byte(2)
	OpLE = byte(3)
	OpGT = byte(4)
	OpGE = byte(5)
)

var opToFDB = map[byte]fdb.CmpOp{
	OpEQ: fdb.EQ, OpNE: fdb.NE, OpLT: fdb.LT, OpLE: fdb.LE, OpGT: fdb.GT, OpGE: fdb.GE,
}

// Aggregate functions, wire-stable.
const (
	AggCount         = byte(0)
	AggSum           = byte(1)
	AggMin           = byte(2)
	AggMax           = byte(3)
	AggCountDistinct = byte(4)
)

var aggToFDB = map[byte]fdb.AggFn{
	AggCount: fdb.Count, AggSum: fdb.Sum, AggMin: fdb.Min, AggMax: fdb.Max,
	AggCountDistinct: fdb.CountDistinct,
}

// Value is one wire-encoded datum: an int64 or a string (strings are
// dictionary-encoded server-side).
type Value struct {
	IsStr bool
	Int   int64
	Str   string
}

// Int wraps an integer as a wire Value.
func Int(v int64) Value { return Value{Int: v} }

// Str wraps a string as a wire Value.
func Str(s string) Value { return Value{IsStr: true, Str: s} }

// Native converts the wire value to the engine's interface{} form.
func (v Value) Native() interface{} {
	if v.IsStr {
		return v.Str
	}
	return v.Int
}

// Sel value kinds.
const (
	selInt   = byte(0)
	selStr   = byte(1)
	selParam = byte(2)
)

// Sel is one selection of a Spec: attr θ constant, or attr θ $param bound
// at Exec time.
type Sel struct {
	Attr string
	Op   byte
	Kind byte // selInt | selStr | selParam
	Int  int64
	Str  string // constant string (selStr) or parameter name (selParam)
}

// SelInt builds attr θ int.
func SelInt(attr string, op byte, v int64) Sel { return Sel{Attr: attr, Op: op, Kind: selInt, Int: v} }

// SelStr builds attr θ string.
func SelStr(attr string, op byte, s string) Sel {
	return Sel{Attr: attr, Op: op, Kind: selStr, Str: s}
}

// SelParam builds attr θ $name, bound per Exec.
func SelParam(attr string, op byte, name string) Sel {
	return Sel{Attr: attr, Op: op, Kind: selParam, Str: name}
}

// AggSpec is one aggregate of a Spec.
type AggSpec struct {
	Fn   byte
	Attr string // empty for AggCount
}

// OrderKey is one ORDER BY key of a Spec.
type OrderKey struct {
	Attr string
	Desc bool
}

// Spec is the wire form of a query: the structured equivalent of the
// library's clause list, serialisable and database-independent. The zero
// value with From set is a full select of the named relations' join.
type Spec struct {
	From     []string
	Eqs      [][2]string
	Sels     []Sel
	Project  []string // nil: keep all attributes
	GroupBy  []string
	Aggs     []AggSpec
	OrderBy  []OrderKey
	Limit    int64 // -1: none
	Offset   int64
	Distinct bool
}

// NewSpec returns a Spec joining the named relations, with no limit.
func NewSpec(from ...string) Spec { return Spec{From: from, Limit: -1} }

// IsAgg reports whether the spec compiles to an aggregate statement
// (ExecAgg rather than Exec).
func (sp *Spec) IsAgg() bool { return len(sp.Aggs) > 0 }

// Clauses converts the spec to the library's clause list. Unknown operator
// or aggregate codes error rather than silently aliasing, and so do the
// counts fdb.Limit and fdb.Offset refuse: a Limit below -1 (-1 is "no
// limit") and a negative Offset.
func (sp *Spec) Clauses() ([]fdb.Clause, error) {
	if sp.Limit < -1 {
		return nil, fmt.Errorf("wire: limit needs n >= 0 (or -1 for none), got %d", sp.Limit)
	}
	if sp.Offset < 0 {
		return nil, fmt.Errorf("wire: offset needs n >= 0, got %d", sp.Offset)
	}
	var cs []fdb.Clause
	if len(sp.From) > 0 {
		cs = append(cs, fdb.From(sp.From...))
	}
	for _, e := range sp.Eqs {
		cs = append(cs, fdb.Eq(e[0], e[1]))
	}
	for _, s := range sp.Sels {
		op, ok := opToFDB[s.Op]
		if !ok {
			return nil, fmt.Errorf("wire: unknown comparison operator %d", s.Op)
		}
		switch s.Kind {
		case selInt:
			cs = append(cs, fdb.Cmp(s.Attr, op, s.Int))
		case selStr:
			cs = append(cs, fdb.Cmp(s.Attr, op, s.Str))
		case selParam:
			cs = append(cs, fdb.Cmp(s.Attr, op, fdb.Param(s.Str)))
		default:
			return nil, fmt.Errorf("wire: unknown selection kind %d", s.Kind)
		}
	}
	if sp.Project != nil {
		cs = append(cs, fdb.Project(sp.Project...))
	}
	if len(sp.GroupBy) > 0 {
		cs = append(cs, fdb.GroupBy(sp.GroupBy...))
	}
	for _, a := range sp.Aggs {
		fn, ok := aggToFDB[a.Fn]
		if !ok {
			return nil, fmt.Errorf("wire: unknown aggregate function %d", a.Fn)
		}
		cs = append(cs, fdb.Agg(fn, a.Attr))
	}
	if len(sp.OrderBy) > 0 {
		keys := make([]interface{}, len(sp.OrderBy))
		for i, k := range sp.OrderBy {
			if k.Desc {
				keys[i] = fdb.Desc(k.Attr)
			} else {
				keys[i] = fdb.Asc(k.Attr)
			}
		}
		cs = append(cs, fdb.OrderBy(keys...))
	}
	if sp.Offset > 0 {
		cs = append(cs, fdb.Offset(int(sp.Offset)))
	}
	if sp.Limit >= 0 {
		cs = append(cs, fdb.Limit(int(sp.Limit)))
	}
	if sp.Distinct {
		cs = append(cs, fdb.Distinct())
	}
	return cs, nil
}

// Arg is one named parameter binding of an Exec request.
type Arg struct {
	Name string
	Val  Value
}

// ----------------------------------------------------------------------------
// Body encoding. A writer appends to a byte slice; the reader checks bounds
// on every read and the decode entry points reject trailing bytes, so a
// truncated or padded body is an error, never a silent partial decode.

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)  { w.u64(uint64(v)) }
func (w *wbuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) val(v Value) {
	if v.IsStr {
		w.u8(1)
		w.str(v.Str)
	} else {
		w.u8(0)
		w.i64(v.Int)
	}
}

var errTruncated = fmt.Errorf("wire: truncated message body")

type rbuf struct {
	b   []byte
	s   string // b as one string when set: str returns substrings of it instead of copies
	off int
	err error
}

func (r *rbuf) fail() { r.err = errTruncated }

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) i64() int64 { return int64(r.u64()) }

func (r *rbuf) bool() bool { return r.u8() != 0 }

func (r *rbuf) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	var s string
	if r.s != "" {
		s = r.s[r.off : r.off+n]
	} else {
		s = string(r.b[r.off : r.off+n])
	}
	r.off += n
	return s
}

func (r *rbuf) val() Value {
	if r.u8() != 0 {
		return Value{IsStr: true, Str: r.str()}
	}
	return Value{Int: r.i64()}
}

// count reads a u32 element count and bounds it by the remaining bytes at
// min bytes per element, so a hostile count cannot drive a huge allocation.
func (r *rbuf) count(minPer int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if minPer < 1 {
		minPer = 1
	}
	if n < 0 || n > (len(r.b)-r.off)/minPer {
		r.fail()
		return 0
	}
	return n
}

// done errors unless the body was consumed exactly.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after message body", len(r.b)-r.off)
	}
	return nil
}

func (w *wbuf) strs(ss []string) {
	w.u32(uint32(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (r *rbuf) strs() []string {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.str())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// EncodeSpec serialises a query spec.
func EncodeSpec(sp *Spec) []byte {
	w := &wbuf{}
	w.strs(sp.From)
	w.u32(uint32(len(sp.Eqs)))
	for _, e := range sp.Eqs {
		w.str(e[0])
		w.str(e[1])
	}
	w.u32(uint32(len(sp.Sels)))
	for _, s := range sp.Sels {
		w.str(s.Attr)
		w.u8(s.Op)
		w.u8(s.Kind)
		if s.Kind == selInt {
			w.i64(s.Int)
		} else {
			w.str(s.Str)
		}
	}
	w.bool(sp.Project != nil)
	if sp.Project != nil {
		w.strs(sp.Project)
	}
	w.strs(sp.GroupBy)
	w.u32(uint32(len(sp.Aggs)))
	for _, a := range sp.Aggs {
		w.u8(a.Fn)
		w.str(a.Attr)
	}
	w.u32(uint32(len(sp.OrderBy)))
	for _, k := range sp.OrderBy {
		w.str(k.Attr)
		w.bool(k.Desc)
	}
	w.i64(sp.Limit)
	w.i64(sp.Offset)
	w.bool(sp.Distinct)
	return w.b
}

// DecodeSpec deserialises a query spec, rejecting truncated and padded
// bodies.
func DecodeSpec(b []byte) (*Spec, error) {
	r := &rbuf{b: b}
	sp := &Spec{}
	sp.From = r.strs()
	n := r.count(8)
	for i := 0; i < n; i++ {
		sp.Eqs = append(sp.Eqs, [2]string{r.str(), r.str()})
	}
	n = r.count(6)
	for i := 0; i < n; i++ {
		s := Sel{Attr: r.str(), Op: r.u8(), Kind: r.u8()}
		if s.Kind == selInt {
			s.Int = r.i64()
		} else {
			s.Str = r.str()
		}
		sp.Sels = append(sp.Sels, s)
	}
	if r.bool() {
		sp.Project = r.strs()
		if sp.Project == nil {
			sp.Project = []string{}
		}
	}
	sp.GroupBy = r.strs()
	n = r.count(5)
	for i := 0; i < n; i++ {
		sp.Aggs = append(sp.Aggs, AggSpec{Fn: r.u8(), Attr: r.str()})
	}
	n = r.count(5)
	for i := 0; i < n; i++ {
		sp.OrderBy = append(sp.OrderBy, OrderKey{Attr: r.str(), Desc: r.bool()})
	}
	sp.Limit = r.i64()
	sp.Offset = r.i64()
	sp.Distinct = r.bool()
	if err := r.done(); err != nil {
		return nil, err
	}
	return sp, nil
}

// PrepareResp is the response to VerbPrepare.
type PrepareResp struct {
	Handle uint32
	Params []string // parameter names, declaration order
	IsAgg  bool     // true: the rows are aggregate rows (group keys, then values)
}

// EncodePrepareResp serialises a prepare response.
func EncodePrepareResp(p *PrepareResp) []byte {
	w := &wbuf{}
	w.u32(p.Handle)
	w.strs(p.Params)
	w.bool(p.IsAgg)
	return w.b
}

// DecodePrepareResp deserialises a prepare response.
func DecodePrepareResp(b []byte) (*PrepareResp, error) {
	r := &rbuf{b: b}
	p := &PrepareResp{Handle: r.u32(), Params: r.strs(), IsAgg: r.bool()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// ExecReq is the body of VerbExec: the statement handle, an
// optional pinned snapshot (0 = live data), a row cap (0 = all rows) and
// the parameter bindings.
type ExecReq struct {
	Handle  uint32
	Snap    uint32
	MaxRows uint32
	Args    []Arg
}

// EncodeExecReq serialises an exec request.
func EncodeExecReq(e *ExecReq) []byte {
	w := &wbuf{}
	w.u32(e.Handle)
	w.u32(e.Snap)
	w.u32(e.MaxRows)
	w.u32(uint32(len(e.Args)))
	for _, a := range e.Args {
		w.str(a.Name)
		w.val(a.Val)
	}
	return w.b
}

// DecodeExecReq deserialises an exec request.
func DecodeExecReq(b []byte) (*ExecReq, error) {
	r := &rbuf{b: b}
	e := &ExecReq{Handle: r.u32(), Snap: r.u32(), MaxRows: r.u32()}
	n := r.count(6)
	for i := 0; i < n; i++ {
		e.Args = append(e.Args, Arg{Name: r.str(), Val: r.val()})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}

// Rows is the response body of VerbExec: the result schema and the rows,
// rendered exactly as the library API's Rows surface renders them (the
// differential harness compares the two byte for byte).
type Rows struct {
	Schema []string
	Rows   [][]string
}

// ExecReply runs a prepared statement with the given bindings and returns
// its reply body: the schema and up to maxRows rows (0: all), byte for byte
// EncodeRows(&Rows{res.Schema(), res.Rows(maxRows)}), written straight from
// the result's iterator with no row ever materialised as strings. Whether
// the statement computes aggregates or tuples is the statement's own
// property, so this is the one place that picks between ExecAgg and Exec:
// the server's EXEC handler and every library-side reference a reply is
// compared with go through here. maxFrame > 0 is the frame limit the reply
// must fit: the walk stops with a "result too large" error as soon as the
// body passes it, instead of finishing a body no frame can carry.
func ExecReply(ctx context.Context, st *fdb.Stmt, args []Arg, maxRows, maxFrame int) ([]byte, error) {
	named := make([]fdb.NamedArg, len(args))
	for i, a := range args {
		named[i] = fdb.Arg(a.Name, a.Val.Native())
	}
	if len(st.Aggregates()) > 0 {
		res, err := st.ExecAggContext(ctx, named...)
		if err != nil {
			return nil, err
		}
		return aggReply(res, maxRows, maxFrame)
	}
	res, err := st.ExecContext(ctx, named...)
	if err != nil {
		return nil, err
	}
	return tupleReply(res, maxRows, maxFrame)
}

// tupleReply writes a tuple result's reply body.
func tupleReply(res *fdb.Result, maxRows, maxFrame int) ([]byte, error) {
	w := newReply(res.Schema(), res.Dict().Snapshot(), maxFrame)
	kinds := res.Kinds()
	rows := res.Count()
	if maxRows > 0 {
		rows = min(rows, int64(maxRows))
	}
	it := res.Iter()
	for maxRows <= 0 || w.rows < maxRows {
		t, ok := it.Next()
		if !ok {
			break
		}
		at := len(w.b)
		w.row(len(t))
		for i, v := range t {
			w.cell(v, kinds[i])
		}
		if err := w.check(); err != nil {
			return nil, err
		}
		if w.rows == 1 {
			w.expect(rows-1, len(w.b)-at)
		}
	}
	return w.finish(), nil
}

// aggReply writes an aggregate result's reply body: per group, the key
// cells rendered as Result.Each renders them, then the aggregate values in
// decimal.
func aggReply(res *fdb.AggResult, maxRows, maxFrame int) ([]byte, error) {
	schema := res.Schema()
	w := newReply(schema, res.Dict().Snapshot(), maxFrame)
	kinds := res.Kinds()
	n := res.Len()
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		key := res.KeyValues(i)
		w.row(len(schema))
		for j, v := range key {
			w.cell(v, kinds[j])
		}
		for j := 0; j < len(schema)-len(key); j++ {
			w.intCell(res.Value(i, j))
		}
		if err := w.check(); err != nil {
			return nil, err
		}
	}
	return w.finish(), nil
}

// reply is an EXEC reply body under construction, in EncodeRows' layout:
// the row count is reserved up front and patched by finish, and each cell's
// length is reserved and patched around its rendering, so cells go from
// value to bytes without an intermediate string.
type reply struct {
	wbuf
	snap     []string // the one dictionary snapshot every cell renders against
	maxFrame int      // > 0: frame limit the body must fit
	rows     int
	countAt  int
}

func newReply(schema, snap []string, maxFrame int) *reply {
	w := &reply{snap: snap, maxFrame: maxFrame}
	w.strs(schema)
	w.countAt = len(w.b)
	w.u32(0)
	return w
}

// expect sizes the body for rows more rows of about rowBytes each (with a
// quarter's slack for wider values), so it is not regrown row by row. The
// capacity never passes the frame limit, which no body may outgrow anyway.
func (w *reply) expect(rows int64, rowBytes int) {
	limit := MaxFrame
	if w.maxFrame > 0 {
		limit = w.maxFrame
	}
	want := min(int64(len(w.b))+rows*int64(rowBytes)*5/4, int64(limit))
	if n := int(want) - len(w.b); n > 0 {
		w.b = slices.Grow(w.b, n)
	}
}

// row starts a row of n cells.
func (w *reply) row(n int) {
	w.u32(uint32(n))
	w.rows++
}

// cell appends one value of an attribute of kind k, rendered as
// Result.Each renders it.
func (w *reply) cell(v relation.Value, k relation.Kind) {
	at := w.reserve()
	w.b = relation.AppendCell(w.b, w.snap, v, k)
	w.patch(at)
}

// intCell appends one aggregate value in decimal.
func (w *reply) intCell(v int64) {
	at := w.reserve()
	w.b = strconv.AppendInt(w.b, v, 10)
	w.patch(at)
}

// reserve appends a placeholder length and returns its offset.
func (w *reply) reserve() int {
	w.u32(0)
	return len(w.b) - 4
}

// patch fills the length reserved at offset at with the bytes written since.
func (w *reply) patch(at int) {
	binary.BigEndian.PutUint32(w.b[at:], uint32(len(w.b)-at-4))
}

// check errors once the body has outgrown the frame limit.
func (w *reply) check() error {
	if w.maxFrame > 0 && frameHeader+len(w.b) > w.maxFrame {
		return fmt.Errorf("result too large: %d rows in, the reply already exceeds the server's %d-byte frame limit (MaxFrame); lower MaxRows or narrow the query",
			w.rows, w.maxFrame)
	}
	return nil
}

// finish patches the row count and returns the body.
func (w *reply) finish() []byte {
	binary.BigEndian.PutUint32(w.b[w.countAt:], uint32(w.rows))
	return w.b
}

// EncodeRows serialises a result.
func EncodeRows(rs *Rows) []byte {
	w := &wbuf{}
	w.strs(rs.Schema)
	w.u32(uint32(len(rs.Rows)))
	for _, row := range rs.Rows {
		w.strs(row)
	}
	return w.b
}

// DecodeRows deserialises a result. The body is copied into one string and
// every cell is a substring of it, every row a capacity-limited slice of one
// shared backing array: two allocations for the cells whatever their count,
// none of them aliasing b. The flip side is that a retained cell or row
// keeps its whole reply's string alive.
func DecodeRows(b []byte) (*Rows, error) {
	r := &rbuf{b: b, s: string(b)}
	rs := &Rows{Schema: r.strs()}
	rowsAt := r.off
	n := r.count(4)
	// First pass: validate the body and count its cells, so the backing
	// array is sized exactly and bounded by the body like every count.
	cells := 0
	for i := 0; i < n && r.err == nil; i++ {
		m := r.count(4)
		cells += m
		for j := 0; j < m; j++ {
			r.str()
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if n == 0 {
		return rs, nil
	}
	r.off = rowsAt + 4
	rs.Rows = make([][]string, n)
	all := make([]string, cells)
	for i := range rs.Rows {
		m := int(r.u32())
		if m == 0 {
			continue // nil, as strs decodes an empty list
		}
		row := all[:m:m]
		all = all[m:]
		for j := range row {
			row[j] = r.str()
		}
		rs.Rows[i] = row
	}
	return rs, nil
}

// SnapResp is the response to VerbSnapshot.
type SnapResp struct {
	ID  uint32
	Ver uint64 // database write version the snapshot pins
}

// EncodeSnapResp serialises a snapshot response.
func EncodeSnapResp(s *SnapResp) []byte {
	w := &wbuf{}
	w.u32(s.ID)
	w.u64(s.Ver)
	return w.b
}

// DecodeSnapResp deserialises a snapshot response.
func DecodeSnapResp(b []byte) (*SnapResp, error) {
	r := &rbuf{b: b}
	s := &SnapResp{ID: r.u32(), Ver: r.u64()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteReq is the body of the write verbs: the relation, the key-prefix
// width (upserts only) and the tuple batch. The whole batch commits as one
// version bump, mirroring the library's Batch forms.
type WriteReq struct {
	Rel     string
	KeyCols uint32
	Rows    [][]Value
}

// EncodeWriteReq serialises a write request.
func EncodeWriteReq(wr *WriteReq) []byte {
	w := &wbuf{}
	w.str(wr.Rel)
	w.u32(wr.KeyCols)
	w.u32(uint32(len(wr.Rows)))
	for _, row := range wr.Rows {
		w.u32(uint32(len(row)))
		for _, v := range row {
			w.val(v)
		}
	}
	return w.b
}

// DecodeWriteReq deserialises a write request.
func DecodeWriteReq(b []byte) (*WriteReq, error) {
	r := &rbuf{b: b}
	wr := &WriteReq{Rel: r.str(), KeyCols: r.u32()}
	n := r.count(4)
	for i := 0; i < n; i++ {
		m := r.count(5) // a value is at least tag + empty string (5 bytes)
		row := make([]Value, 0, m)
		for j := 0; j < m; j++ {
			row = append(row, r.val())
		}
		wr.Rows = append(wr.Rows, row)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return wr, nil
}

// WriteResp is the response to the write verbs: the database write version
// after the committed batch.
type WriteResp struct {
	Ver uint64
}

// EncodeWriteResp serialises a write response.
func EncodeWriteResp(wr *WriteResp) []byte {
	w := &wbuf{}
	w.u64(wr.Ver)
	return w.b
}

// DecodeWriteResp deserialises a write response.
func DecodeWriteResp(b []byte) (*WriteResp, error) {
	r := &rbuf{b: b}
	wr := &WriteResp{Ver: r.u64()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return wr, nil
}

// EncodeError serialises a RespErr body.
func EncodeError(code byte, msg string) []byte {
	w := &wbuf{}
	w.u8(code)
	w.str(msg)
	return w.b
}

// DecodeError deserialises a RespErr body. A malformed error body is
// itself reported as an error value, never dropped.
func DecodeError(b []byte) *Error {
	r := &rbuf{b: b}
	e := &Error{Code: r.u8(), Msg: r.str()}
	if err := r.done(); err != nil {
		return &Error{Code: CodeBadRequest, Msg: "malformed error body"}
	}
	return e
}

// EncodeU32 serialises the one-u32 body shared by VerbCloseStmt and
// VerbRelease (the handle or snapshot id).
func EncodeU32(v uint32) []byte {
	w := &wbuf{}
	w.u32(v)
	return w.b
}

// DecodeU32 deserialises a one-u32 body.
func DecodeU32(b []byte) (uint32, error) {
	r := &rbuf{b: b}
	v := r.u32()
	if err := r.done(); err != nil {
		return 0, err
	}
	return v, nil
}
