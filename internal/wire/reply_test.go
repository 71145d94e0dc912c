package wire

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	fdb "repro"
	"repro/internal/fuzz"
)

// libReply is the reply a statement's library-side rows encode to: the
// oracle ExecReply must equal byte for byte.
func libReply(t testing.TB, st *fdb.Stmt, args []Arg, maxRows int) []byte {
	t.Helper()
	if len(st.Aggregates()) > 0 {
		res, err := st.ExecAgg(nativeArgs(args)...)
		if err != nil {
			t.Fatalf("exec agg: %v", err)
		}
		return EncodeRows(&Rows{Schema: res.Schema(), Rows: res.Rows(maxRows)})
	}
	res, err := st.Exec(nativeArgs(args)...)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return EncodeRows(&Rows{Schema: res.Schema(), Rows: res.Rows(maxRows)})
}

// replyCase is one statement ExecReply is held to its oracle on.
type replyCase struct {
	name string
	st   *fdb.Stmt
	args []Arg
}

// prepare compiles clauses on db for a replyCase.
func prepare(t *testing.T, db *fdb.DB, clauses ...fdb.Clause) *fdb.Stmt {
	t.Helper()
	st, err := db.Prepare(clauses...)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return st
}

// stringsDB holds string cells and an integer column whose small values are
// dictionary codes (0 and 1 render as the first two strings ever encoded;
// 99 as itself), so both rendering branches and their boundary show.
func stringsDB(t *testing.T) *fdb.DB {
	t.Helper()
	db := fdb.New()
	db.MustCreate("P", "name", "n")
	db.MustCreate("Q", "n", "tag")
	for _, r := range [][]interface{}{{"ann", int64(0)}, {"bob", int64(1)}, {"", int64(99)}, {"cy", int64(-4)}} {
		db.MustInsert("P", r...)
	}
	for _, r := range [][]interface{}{{int64(0), "x"}, {int64(1), "yy"}, {int64(99), ""}, {int64(99), "z"}} {
		db.MustInsert("Q", r...)
	}
	return db
}

// TestExecReplyIsEncodeRows: the reply writer produces exactly the bytes of
// EncodeRows over the library's rows — for the retailer read pool, the
// fuzz generator's statements, string cells, integers below the dictionary
// length, empty results and every retrieval clause — at maxRows 0, 1, the
// exact count and one past it.
func TestExecReplyIsEncodeRows(t *testing.T) {
	var cases []replyCase

	retail := fdb.New()
	if err := SeedRetailer(retail, 42, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, q := range RetailerQueries() {
		clauses, err := q.Spec.Clauses()
		if err != nil {
			t.Fatal(err)
		}
		st := prepare(t, retail, clauses...)
		for i := 0; i < 3; i++ {
			cases = append(cases, replyCase{fmt.Sprintf("%s/%d", q.Name, i), st, q.Args(rng)})
		}
	}
	join := retailerJoin()
	join.Sels = []Sel{SelInt("Orders.oid", OpLT, 0)}
	clauses, err := join.Clauses()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, replyCase{name: "retailer/empty", st: prepare(t, retail, clauses...)})

	sdb := stringsDB(t)
	from := []fdb.Clause{fdb.From("P", "Q"), fdb.Eq("P.n", "Q.n")}
	for name, extra := range map[string][]fdb.Clause{
		"strings/all":      nil,
		"strings/ordered":  {fdb.OrderBy(fdb.Desc("P.name"), fdb.Asc("Q.tag")), fdb.Offset(1), fdb.Limit(2)},
		"strings/distinct": {fdb.Project("P.n"), fdb.Distinct(), fdb.OrderBy(fdb.Asc("P.n"))},
		"strings/empty":    {fdb.Cmp("P.name", fdb.EQ, "nobody")},
		"strings/agg":      {fdb.GroupBy("P.name"), fdb.Agg(fdb.Count, ""), fdb.Agg(fdb.Sum, "Q.n")},
		"strings/agg0":     {fdb.Cmp("P.name", fdb.EQ, "nobody"), fdb.Agg(fdb.Count, "")},
	} {
		cases = append(cases, replyCase{name: name, st: prepare(t, sdb, append(append([]fdb.Clause{}, from...), extra...)...)})
	}

	for seed := int64(1); seed <= 200; seed++ {
		c, err := fuzz.NewCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		db, clauses, err := c.Statement()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, replyCase{name: fmt.Sprintf("fuzz/%d", seed), st: prepare(t, db, clauses...)})
	}

	ctx := context.Background()
	for _, tc := range cases {
		n, err := DecodeRows(libReply(t, tc.st, tc.args, 0))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, maxRows := range []int{0, 1, len(n.Rows), len(n.Rows) + 1} {
			got, err := ExecReply(ctx, tc.st, tc.args, maxRows, 0)
			if err != nil {
				t.Fatalf("%s maxRows=%d: %v", tc.name, maxRows, err)
			}
			if want := libReply(t, tc.st, tc.args, maxRows); !bytes.Equal(got, want) {
				t.Fatalf("%s maxRows=%d: ExecReply wrote %d bytes that differ from EncodeRows' %d", tc.name, maxRows, len(got), len(want))
			}
		}
	}
}

// TestExecReplyStopsAtMaxFrame: an oversize scan under a small frame limit
// is refused while the body is written, so the refusal costs a body of
// about the limit, not the whole result's.
func TestExecReplyStopsAtMaxFrame(t *testing.T) {
	const limit = 4096
	db := fdb.New()
	if err := SeedRetailer(db, 42, 1); err != nil {
		t.Fatal(err)
	}
	join := retailerJoin()
	clauses, err := join.Clauses()
	if err != nil {
		t.Fatal(err)
	}
	st := prepare(t, db, clauses...)
	ctx := context.Background()
	full, err := ExecReply(ctx, st, nil, 0, 0) // memoises the encoding, too
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 16*limit {
		t.Fatalf("the full scan is only %d bytes: too small to show the bound", len(full))
	}
	var before, after runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		_, err = ExecReply(ctx, st, nil, 0, limit)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if err == nil || !strings.Contains(err.Error(), "result too large") || !strings.Contains(err.Error(), fmt.Sprint(limit)) {
			t.Fatalf("oversize scan under a %d-byte frame limit: got %v", limit, err)
		}
	}
	t.Logf("refusing the %d-byte scan under a %d-byte limit allocated %d bytes", len(full), limit, least)
	if least > 8*limit {
		t.Fatalf("refusing the oversize scan allocated %d bytes (the whole body is %d); want under %d", least, len(full), 8*limit)
	}
	if body, err := ExecReply(ctx, st, nil, 10, limit); err != nil || !bytes.Equal(body, libReply(t, st, nil, 10)) {
		t.Fatalf("a reply under the limit: %v", err)
	}
}

// TestDecodeRowsOwnsItsStrings: decoded rows do not alias the body they came
// from — overwriting the buffer afterwards changes none of them.
func TestDecodeRowsOwnsItsStrings(t *testing.T) {
	want := &Rows{Schema: []string{"a", "b"}, Rows: [][]string{{"1", "xyz"}, {"", "7"}, {"long cell", "q"}}}
	body := EncodeRows(want)
	got, err := DecodeRows(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xFF
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows changed with the body they were decoded from:\n%q\nwant %q", got, want)
	}
	// Rows share one backing array, capacity-limited: appending to one row
	// must not overwrite the next.
	_ = append(got.Rows[0], "grown")
	if got.Rows[1][0] != "" {
		t.Fatalf("appending to row 0 overwrote row 1: %q", got.Rows[1])
	}
}

// scanStmt prepares the scale-1 retailer full join, the scan workload's
// shape, and executes it once so its encoding is memoised.
func scanStmt(b *testing.B) *fdb.Stmt {
	b.Helper()
	db := fdb.New()
	if err := SeedRetailer(db, 42, 1); err != nil {
		b.Fatal(err)
	}
	join := retailerJoin()
	clauses, err := join.Clauses()
	if err != nil {
		b.Fatal(err)
	}
	st, err := db.Prepare(clauses...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Exec(); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkExecReply writes the scan reply body from a memoised encoding.
func BenchmarkExecReply(b *testing.B) {
	st := scanStmt(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecReply(ctx, st, nil, 0, MaxFrame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRows decodes the scan reply body.
func BenchmarkDecodeRows(b *testing.B) {
	body, err := ExecReply(context.Background(), scanStmt(b), nil, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRows(body); err != nil {
			b.Fatal(err)
		}
	}
}
