package fdb

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/frep"
	"repro/internal/relation"
)

// retrievalDB is a join whose f-tree branches: the class {R.b, S.b} at the
// root with R.a and S.c as sibling children, so an ORDER BY can name the
// root (streams), the root and the second child (streams off a
// sibling-reordered view) or a child alone (cannot stream).
func retrievalDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustCreate("R", "a", "b")
	db.MustCreate("S", "b", "c")
	for _, r := range [][2]int{{3, 1}, {1, 2}, {2, 1}, {1, 1}, {2, 2}} {
		db.MustInsert("R", r[0], r[1])
	}
	for _, s := range [][2]int{{1, 9}, {1, 8}, {2, 7}, {2, 9}} {
		db.MustInsert("S", s[0], s[1])
	}
	return db
}

// flatReference is what retrieval must produce, computed off the flat
// tuples: the encoding's enumeration (duplicates included, for a bag)
// re-columned to the result's schema, sorted by the retrieval comparator,
// clipped.
func flatReference(r *Result) []relation.Tuple {
	var schema relation.Schema
	for _, a := range r.Schema() {
		schema = append(schema, relation.Attribute(a))
	}
	from := r.enc.Schema()
	cols := make([]int, len(schema))
	for i, a := range schema {
		cols[i] = from.Index(a)
	}
	var out []relation.Tuple
	r.enc.Enumerate(func(tp relation.Tuple) bool {
		row := make(relation.Tuple, len(cols))
		for i, c := range cols {
			row[i] = tp[c]
		}
		out = append(out, row)
		return true
	})
	cmp := frep.TupleCompare(schema, r.order, r.less)
	sort.SliceStable(out, func(i, j int) bool { return cmp(out[i], out[j]) < 0 })
	if r.offset >= len(out) {
		return nil
	}
	out = out[r.offset:]
	if r.limit >= 0 && len(out) > r.limit {
		out = out[:r.limit]
	}
	return out
}

// TestIterEveryWayOut drives every way a tuple leaves a Result — stored order,
// streamed on the root key, streamed off a sibling-reordered view, the heap
// fallback, a UnionAll bag — under every clip, and checks that Iter, Each,
// Rows, Count and Schema agree with the flat reference and that the way out
// is resolved once.
func TestIterEveryWayOut(t *testing.T) {
	db := retrievalDB(t)
	join := []Clause{From("R", "S"), Eq("R.b", "S.b")}
	plain, err := db.Query(join...)
	if err != nil {
		t.Fatal(err)
	}
	sch := plain.Schema() // root class first, the second child's attribute last
	root, lastChild := sch[0], sch[len(sch)-1]
	// setOp combines the legs R.a <= 2 and R.a >= 2 and finishes the result
	// with Where.
	setOp := func(op func(a, b *Result) (*Result, error), finish ...Clause) func(clip []Clause) (*Result, error) {
		return func(clip []Clause) (*Result, error) {
			var legs [2]*Result
			for i, cmp := range []CmpOp{LE, GE} {
				var err error
				if legs[i], err = db.Query(append(join[:2:2], Cmp("R.a", cmp, 2))...); err != nil {
					return nil, err
				}
			}
			res, err := op(legs[0], legs[1])
			if err != nil {
				return nil, err
			}
			return res.Where(append(finish[:len(finish):len(finish)], clip...)...)
		}
	}

	query := func(order ...Clause) func(clip []Clause) (*Result, error) {
		return func(clip []Clause) (*Result, error) {
			return db.Query(append(append(join[:2:2], order...), clip...)...)
		}
	}
	cases := []struct {
		name  string
		build func(clip []Clause) (*Result, error)
		// The branch the case is there to take.
		streamed, view, bag bool
	}{
		{name: "plain", build: query(), streamed: true},
		{name: "streamed on the root key", build: query(OrderBy(Desc(root))), streamed: true},
		{name: "sibling-reordered view", streamed: true, view: true,
			build: setOp((*Result).Union, OrderBy(root, Desc(lastChild)))},
		{name: "heap fallback", build: query(OrderBy(Desc(lastChild)))},
		{name: "bag", bag: true, build: setOp((*Result).UnionAll)},
	}
	clips := map[string][]Clause{
		"no clip":             nil,
		"offset":              {Offset(2)},
		"limit":               {Limit(3)},
		"offset and limit":    {Offset(3), Limit(4)},
		"offset past the end": {Offset(99)},
	}
	for _, c := range cases {
		for clipName, clip := range clips {
			t.Run(c.name+"/"+clipName, func(t *testing.T) {
				res, err := c.build(clip)
				if err != nil {
					t.Fatal(err)
				}
				rt := res.retrieval()
				if rt.streamed != c.streamed || (rt.enc != res.enc) != c.view || res.enc.HasDupEntries() != c.bag {
					t.Fatalf("took the wrong way out: streamed %v (want %v), view %v (want %v), bag %v (want %v)",
						rt.streamed, c.streamed, rt.enc != res.enc, c.view, res.enc.HasDupEntries(), c.bag)
				}
				if res.OrderStreamed() != (c.streamed && len(res.order) > 0) {
					t.Fatalf("OrderStreamed() = %v", res.OrderStreamed())
				}
				sorted := rt.rows // the slice header, before anything retrieves again
				want := flatReference(res)
				if clipName == "no clip" && len(want) == 0 {
					t.Fatal("fixture produced no tuples")
				}

				it := res.Iter()
				var itSchema []string
				for _, a := range it.Schema() {
					itSchema = append(itSchema, string(a))
				}
				if !reflect.DeepEqual(itSchema, res.Schema()) {
					t.Fatalf("iterator schema %v, Result.Schema() %v", itSchema, res.Schema())
				}
				drain := func(it frep.TupleIter) []relation.Tuple {
					var out []relation.Tuple
					for tp, ok := it.Next(); ok; tp, ok = it.Next() {
						out = append(out, tp.Clone())
					}
					return out
				}
				if got := drain(it); !reflect.DeepEqual(got, want) {
					t.Fatalf("Iter yields\n%v\nwant\n%v", got, want)
				}
				var wantRows [][]string
				for _, tp := range want {
					row := make([]string, len(tp))
					for i, v := range tp {
						row[i] = db.dict.Decode(v)
					}
					wantRows = append(wantRows, row)
				}
				var each [][]string
				res.Each(func(row []string) bool {
					each = append(each, append([]string(nil), row...))
					return true
				})
				if !reflect.DeepEqual(each, wantRows) {
					t.Fatalf("Each yields %v, want %v", each, wantRows)
				}
				if got := res.Rows(0); !reflect.DeepEqual(got, wantRows) {
					t.Fatalf("Rows(0) = %v, want %v", got, wantRows)
				}
				if len(wantRows) > 1 {
					if got := res.Rows(1); !reflect.DeepEqual(got, wantRows[:1]) {
						t.Fatalf("Rows(1) = %v, want %v", got, wantRows[:1])
					}
				}
				if res.Count() != int64(len(want)) || res.Empty() != (len(want) == 0) {
					t.Fatalf("Count() = %d, Empty() = %v with %d tuples", res.Count(), res.Empty(), len(want))
				}

				// A second Iter replays the same resolved retrieval: same
				// tuples, and the sort fallback's rows are the slice sorted
				// the first time.
				if got := drain(res.Iter()); !reflect.DeepEqual(got, want) {
					t.Fatalf("second Iter yields\n%v\nwant\n%v", got, want)
				}
				if again := res.retrieval().rows; len(again) != len(sorted) || (len(sorted) > 0 && &again[0] != &sorted[0]) {
					t.Fatal("second Iter sorted again")
				}
				if c.streamed && rt.rows != nil {
					t.Fatal("a streamed retrieval materialised rows")
				}
			})
		}
	}
}

// TestEachRendersAgainstOneSnapshot: a value one above the dictionary's
// length renders as its decimal form for the whole of one Each call, even
// when a concurrent insert grows the dictionary past it between rows — one
// reply never renders the same value two ways.
func TestEachRendersAgainstOneSnapshot(t *testing.T) {
	db := New()
	db.MustCreate("R", "k", "v")
	db.Dict().Encode("a")
	v := int64(db.Dict().Len() + 1)
	db.MustInsert("R", v+10, v)
	db.MustInsert("R", v+11, v)
	res, err := db.Query(From("R"), Cmp("R.v", EQ, v))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	res.Each(func(row []string) bool {
		got = append(got, row[1])
		for i := 0; db.Dict().Len() <= int(v); i++ {
			db.Dict().Encode(fmt.Sprintf("grown-%d", i))
		}
		return true
	})
	want := strconv.FormatInt(v, 10)
	if len(got) != 2 || got[0] != want || got[1] != want {
		t.Fatalf("Each rendered R.v as %q, want %q twice", got, want)
	}
}
