package frep

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

// TestPooledColumnsStayOutOfResults: every builder draws its columns from
// one shared pool and pack puts them back, so pack must copy a column into
// its arena before another build can take it, and no arena may alias one.
// A first encoding is kept beside a deep copy while four goroutines run a
// few hundred builds over other trees and sizes (encodeRows, the set
// operations, and builders that roll entries back), each checked against
// its own rows. The first encoding must still validate and equal its copy.
func TestPooledColumnsStayOutOfResults(t *testing.T) {
	schema := relation.Schema{"A", "B", "C"}
	first := encodeRows(chainTree(schema), setOpRel(rand.New(rand.NewSource(1)), schema, 400, 12).Tuples)
	keep := &Enc{Tree: first.Tree, Empty: first.Empty, cols: slices.Clone(first.cols), ti: first.ti,
		A: Arena{Vals: slices.Clone(first.A.Vals), Offs: slices.Clone(first.A.Offs)}}

	errs := make([]error, 4)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = churnBuilds(rand.New(rand.NewSource(int64(g))), 200)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if err := first.Validate(); err != nil {
		t.Fatalf("the first encoding no longer validates: %v", err)
	}
	if !first.Equal(keep) {
		t.Fatalf("the first encoding changed under later builds:\n%s\nwas\n%s", first, keep)
	}
}

// churnBuilds runs rounds of three builds over a random chain tree of one
// to four attributes and checks each result's rows: encodeRows of random
// rows, a random set operation over two encodings of random relations, and
// a hand-driven build that rolls back every third root entry.
func churnBuilds(rng *rand.Rand, rounds int) error {
	ops := []func(a, b *Enc) (*Enc, error){SetUnionEnc, ExceptEnc, IntersectEnc}
	for round := range rounds {
		schema := relation.Schema{}
		for i := range 1 + rng.Intn(4) {
			schema = append(schema, relation.Attribute(fmt.Sprint("X", i)))
		}
		tr := chainTree(schema)
		check := func(what string, e *Enc, want []relation.Tuple) error {
			if err := e.Validate(); err != nil {
				return fmt.Errorf("round %d, %s over %v: %v", round, what, schema, err)
			}
			if got := rowsOf(e, schema); !tuplesEqual(got, want) {
				return fmt.Errorf("round %d, %s over %v: got %v, want %v", round, what, schema, got, want)
			}
			return nil
		}

		rows := setOpRel(rng, schema, rng.Intn(500), 2+rng.Intn(20)).Tuples
		if err := check("encodeRows", encodeRows(tr, rows), rows); err != nil {
			return err
		}

		ra := setOpRel(rng, schema, rng.Intn(200), 2+rng.Intn(6))
		rb := setOpRel(rng, schema, rng.Intn(200), 2+rng.Intn(6))
		ea, err := fromRelation(tr, ra)
		if err != nil {
			return err
		}
		eb, err := fromRelation(chainTree(schema), rb)
		if err != nil {
			return err
		}
		op := rng.Intn(len(ops))
		out, err := ops[op](ea, eb)
		if err != nil {
			return err
		}
		if err := check(setOp(op).String(), out, refRows(setOp(op), ra, rb, schema)); err != nil {
			return err
		}

		// Root values 0..n-1, each over a leaf-to-root column of its own
		// values below, dropping every third root entry by rollback.
		b := NewEncBuilder(tr)
		var want []relation.Tuple
		var mark []int32
		for v := range relation.Value(rng.Intn(300)) {
			mark = b.Mark(0, mark[:0])
			b.Append(0, v)
			for ni := 1; ni < len(schema); ni++ {
				b.Append(ni, v+relation.Value(ni))
			}
			for ni := len(schema) - 1; ni > 0; ni-- {
				b.CloseUnion(ni)
			}
			if v%3 == 0 {
				b.Rollback(0, mark)
				continue
			}
			row := relation.Tuple{v}
			for ni := 1; ni < len(schema); ni++ {
				row = append(row, v+relation.Value(ni))
			}
			want = append(want, row)
		}
		b.CloseUnion(0)
		if err := check("rollback build", b.Finish(), want); err != nil {
			return err
		}
	}
	return nil
}

// TestSpentBuilderPanics: Finish spends a builder, and every call that
// would write into its columns, which the pool may have handed to another
// build, panics with a message that names the misuse.
func TestSpentBuilderPanics(t *testing.T) {
	tr := chainTree(relation.Schema{"A"})
	for name, misuse := range map[string]func(b *EncBuilder){
		"Append":         func(b *EncBuilder) { b.Append(0, 1) },
		"AppendDistinct": func(b *EncBuilder) { b.AppendDistinct(0, nil, 0) },
		"CloseUnion":     func(b *EncBuilder) { b.CloseUnion(0) },
		"CopyUnions":     func(b *EncBuilder) { b.CopyUnions(NewEmptyEnc(tr), 0, 0, 0, 1) },
		"CopyEntries":    func(b *EncBuilder) { b.CopyEntries(NewEmptyEnc(tr), 0, 0, 0, 0) },
		"Finish":         func(b *EncBuilder) { b.Finish() },
		"Finish in more": func(b *EncBuilder) { NewEncBuilder(tr).Finish(b) },
	} {
		b := NewEncBuilder(tr)
		b.Append(0, 7)
		b.Finish()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if op := strings.Fields(name)[0]; !strings.Contains(msg, "EncBuilder."+op+" after Finish") {
					t.Errorf("%s on a spent builder: panic %q", name, msg)
				}
			}()
			misuse(b)
		}()
	}
}

// TestAppendDistinct: chunks of one sorted range, appended in turn, give
// the range's distinct values: a value equal to the open union's last
// entry is skipped, across chunk boundaries too, but a union opened by
// CloseUnion starts afresh, whatever the previous union ended with. The
// values come from the named column only.
func TestAppendDistinct(t *testing.T) {
	tr := chainTree(relation.Schema{"A", "B"})
	b := NewEncBuilder(tr)
	chunk := func(vs ...relation.Value) []relation.Tuple {
		var ts []relation.Tuple
		for i, v := range vs {
			ts = append(ts, relation.Tuple{relation.Value(100 + i), v})
		}
		return ts
	}
	for _, c := range []struct {
		a      relation.Value
		chunks [][]relation.Tuple
		want   []int
	}{
		{1, [][]relation.Tuple{chunk(3, 3, 4), chunk(4, 4, 5), nil, chunk(5)}, []int{2, 1, 0, 0}},
		{2, [][]relation.Tuple{nil, chunk(5, 5, 6)}, []int{0, 2}}, // 5 again: a fresh union
		{3, [][]relation.Tuple{chunk(6), chunk(6, 7)}, []int{1, 1}},
	} {
		b.Append(0, c.a)
		for i, ts := range c.chunks {
			if got := b.AppendDistinct(1, ts, 1); got != c.want[i] {
				t.Errorf("A=%d, chunk %d %v: appended %d, want %d", c.a, i, ts, got, c.want[i])
			}
		}
		b.CloseUnion(1)
	}
	b.CloseUnion(0)
	e := b.Finish()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []relation.Tuple{{1, 3}, {1, 4}, {1, 5}, {2, 5}, {2, 6}, {3, 6}, {3, 7}}
	if got := rowsOf(e, relation.Schema{"A", "B"}); !tuplesEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}
