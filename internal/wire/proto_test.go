package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func randSpec(rng *rand.Rand) *Spec {
	sp := NewSpec()
	for i := 0; i < rng.Intn(3)+1; i++ {
		sp.From = append(sp.From, fmt.Sprintf("R%d", i))
	}
	for i := 0; i < rng.Intn(3); i++ {
		sp.Eqs = append(sp.Eqs, [2]string{fmt.Sprintf("R%d.a", i), fmt.Sprintf("R%d.a", i+1)})
	}
	for i := 0; i < rng.Intn(4); i++ {
		switch rng.Intn(3) {
		case 0:
			sp.Sels = append(sp.Sels, SelInt("R0.a", byte(rng.Intn(6)), rng.Int63()-rng.Int63()))
		case 1:
			sp.Sels = append(sp.Sels, SelStr("R0.b", byte(rng.Intn(6)), "v"))
		default:
			sp.Sels = append(sp.Sels, SelParam("R0.c", byte(rng.Intn(6)), fmt.Sprintf("p%d", i)))
		}
	}
	if rng.Intn(2) == 0 {
		sp.Project = []string{"R0.a"}
	}
	if rng.Intn(2) == 0 {
		sp.GroupBy = []string{"R0.a"}
		sp.Aggs = []AggSpec{{Fn: AggCount}, {Fn: AggSum, Attr: "R0.b"}}
	}
	if rng.Intn(2) == 0 {
		sp.OrderBy = []OrderKey{{Attr: "R0.a", Desc: rng.Intn(2) == 0}}
	}
	sp.Limit = int64(rng.Intn(100) - 1)
	sp.Offset = int64(rng.Intn(10))
	sp.Distinct = rng.Intn(2) == 0
	return &sp
}

// TestSpecRoundTrip drives random specs through the codec.
func TestSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		in := randSpec(rng)
		out, err := DecodeSpec(EncodeSpec(in))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("spec round trip mismatch:\nin  %+v\nout %+v", in, out)
		}
	}
}

// TestMessageRoundTrips covers every other message type.
func TestMessageRoundTrips(t *testing.T) {
	pr := &PrepareResp{Handle: 9, Params: []string{"a", "b"}, IsAgg: true}
	if got, err := DecodePrepareResp(EncodePrepareResp(pr)); err != nil || !reflect.DeepEqual(pr, got) {
		t.Fatalf("PrepareResp: %v / %+v", err, got)
	}
	er := &ExecReq{Handle: 3, Snap: 5, MaxRows: 100, Args: []Arg{{Name: "x", Val: Int(-7)}, {Name: "s", Val: Str("q")}}}
	if got, err := DecodeExecReq(EncodeExecReq(er)); err != nil || !reflect.DeepEqual(er, got) {
		t.Fatalf("ExecReq: %v / %+v", err, got)
	}
	rs := &Rows{Schema: []string{"a", "b"}, Rows: [][]string{{"1", "x"}, {"2", "y"}}}
	if got, err := DecodeRows(EncodeRows(rs)); err != nil || !reflect.DeepEqual(rs, got) {
		t.Fatalf("Rows: %v / %+v", err, got)
	}
	sn := &SnapResp{ID: 4, Ver: 1 << 40}
	if got, err := DecodeSnapResp(EncodeSnapResp(sn)); err != nil || !reflect.DeepEqual(sn, got) {
		t.Fatalf("SnapResp: %v / %+v", err, got)
	}
	wr := &WriteReq{Rel: "R", KeyCols: 2, Rows: [][]Value{{Int(1), Str("a")}, {Int(2), Str("b")}}}
	if got, err := DecodeWriteReq(EncodeWriteReq(wr)); err != nil || !reflect.DeepEqual(wr, got) {
		t.Fatalf("WriteReq: %v / %+v", err, got)
	}
	wp := &WriteResp{Ver: 77}
	if got, err := DecodeWriteResp(EncodeWriteResp(wp)); err != nil || !reflect.DeepEqual(wp, got) {
		t.Fatalf("WriteResp: %v / %+v", err, got)
	}
	e := DecodeError(EncodeError(CodeOverload, "busy"))
	if e.Code != CodeOverload || e.Msg != "busy" {
		t.Fatalf("Error: %+v", e)
	}
	if v, err := DecodeU32(EncodeU32(12345)); err != nil || v != 12345 {
		t.Fatalf("U32: %v / %d", err, v)
	}
}

// TestDecodeRejectsTruncationAndPadding: every strict decoder must reject
// every proper prefix of a valid body, and a body with trailing bytes.
func TestDecodeRejectsTruncationAndPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bodies := map[string][]byte{
		"spec":        EncodeSpec(randSpec(rng)),
		"prepareResp": EncodePrepareResp(&PrepareResp{Handle: 1, Params: []string{"p"}}),
		"execReq":     EncodeExecReq(&ExecReq{Handle: 1, Args: []Arg{{Name: "x", Val: Int(9)}}}),
		"rows":        EncodeRows(&Rows{Schema: []string{"a"}, Rows: [][]string{{"1"}}}),
		"snapResp":    EncodeSnapResp(&SnapResp{ID: 1, Ver: 2}),
		"writeReq":    EncodeWriteReq(&WriteReq{Rel: "R", Rows: [][]Value{{Int(1)}}}),
		"writeResp":   EncodeWriteResp(&WriteResp{Ver: 3}),
		"u32":         EncodeU32(8),
	}
	decode := func(name string, b []byte) error {
		switch name {
		case "spec":
			_, err := DecodeSpec(b)
			return err
		case "prepareResp":
			_, err := DecodePrepareResp(b)
			return err
		case "execReq":
			_, err := DecodeExecReq(b)
			return err
		case "rows":
			_, err := DecodeRows(b)
			return err
		case "snapResp":
			_, err := DecodeSnapResp(b)
			return err
		case "writeReq":
			_, err := DecodeWriteReq(b)
			return err
		case "writeResp":
			_, err := DecodeWriteResp(b)
			return err
		default:
			_, err := DecodeU32(b)
			return err
		}
	}
	for name, body := range bodies {
		if err := decode(name, body); err != nil {
			t.Fatalf("%s: valid body rejected: %v", name, err)
		}
		for cut := 0; cut < len(body); cut++ {
			if err := decode(name, body[:cut]); err == nil {
				t.Fatalf("%s: accepted truncation at %d/%d", name, cut, len(body))
			}
		}
		if err := decode(name, append(append([]byte{}, body...), 0)); err == nil {
			t.Fatalf("%s: accepted trailing byte", name)
		}
	}
}

// TestDecodeHostileCount: a huge element count in a tiny body must fail
// fast instead of driving a giant allocation.
func TestDecodeHostileCount(t *testing.T) {
	w := &wbuf{}
	w.str("R")
	w.u32(0)          // key cols
	w.u32(0xFFFFFFF0) // row count far beyond the body
	if _, err := DecodeWriteReq(w.b); err == nil {
		t.Fatal("hostile row count accepted")
	}
	w = &wbuf{}
	w.u32(0xFFFFFFF0) // schema length
	if _, err := DecodeRows(w.b); err == nil {
		t.Fatal("hostile schema count accepted")
	}
}

// TestSpecClausesRejectsUnknownCodes: unknown operator and aggregate codes
// must error rather than alias to a real one.
func TestSpecClausesRejectsUnknownCodes(t *testing.T) {
	sp := NewSpec("R")
	sp.Sels = []Sel{SelInt("R.a", 99, 1)}
	if _, err := sp.Clauses(); err == nil {
		t.Fatal("unknown operator accepted")
	}
	sp = NewSpec("R")
	sp.Sels = []Sel{{Attr: "R.a", Op: OpEQ, Kind: 42}}
	if _, err := sp.Clauses(); err == nil {
		t.Fatal("unknown selection kind accepted")
	}
	sp = NewSpec("R")
	sp.Aggs = []AggSpec{{Fn: 99}}
	if _, err := sp.Clauses(); err == nil {
		t.Fatal("unknown aggregate accepted")
	}
}

// TestSpecClausesRejectsBadCounts: a Limit below -1 and a negative Offset
// are refused, as fdb.Limit and fdb.Offset refuse them, instead of running
// unclipped or being dropped.
func TestSpecClausesRejectsBadCounts(t *testing.T) {
	for name, edit := range map[string]func(*Spec){
		"limit -2":  func(sp *Spec) { sp.Limit = -2 },
		"limit min": func(sp *Spec) { sp.Limit = -1 << 63 },
		"offset -1": func(sp *Spec) { sp.Offset = -1 },
	} {
		sp := NewSpec("R")
		edit(&sp)
		if _, err := sp.Clauses(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for _, n := range []int64{-1, 0, 5} {
		sp := NewSpec("R")
		sp.Limit = n
		if _, err := sp.Clauses(); err != nil {
			t.Errorf("limit %d refused: %v", n, err)
		}
	}
}
