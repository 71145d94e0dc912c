package frep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// buildEnc builds a representation over t whose every union at node n
// holds the values vals(n), in the emission order of fromRelation.
func buildEnc(t *ftree.T, vals func(n *ftree.Node) []relation.Value) *Enc {
	b := NewEncBuilder(t)
	var emit func(n *ftree.Node)
	emit = func(n *ftree.Node) {
		for _, v := range vals(n) {
			b.Append(b.Idx(n), v)
			for _, c := range n.Children {
				emit(c)
				b.CloseUnion(b.Idx(c))
			}
		}
	}
	for _, r := range t.Roots {
		emit(r)
		b.CloseUnion(b.Idx(r))
	}
	return b.Finish()
}

// randomVals draws 1..width distinct sorted values from [0, span): unions
// of sibling entries overlap, so distinct sets from sibling unions share
// values when they merge.
func randomVals(rng *rand.Rand, width, span int) func(*ftree.Node) []relation.Value {
	return func(*ftree.Node) []relation.Value {
		perm := rng.Perm(span)[:1+rng.Intn(width)]
		slices.Sort(perm)
		out := make([]relation.Value, len(perm))
		for i, v := range perm {
			out[i] = relation.Value(v)
		}
		return out
	}
}

// sessionTree is the shape of the session workload's grouped aggregate:
// group root G → distinct attribute D → leaves X and Y.
func sessionTree() *ftree.T {
	g, d := ftree.NewNode("G"), ftree.NewNode("D")
	g.Add(d)
	d.Add(ftree.NewNode("X"))
	d.Add(ftree.NewNode("Y"))
	return ftree.New([]*ftree.Node{g},
		[]relation.AttrSet{relation.NewAttrSet("G", "D", "X"), relation.NewAttrSet("G", "D", "Y")})
}

// TestAggregateAllocsFlat: with the groups fixed, the aggregation pass
// allocates the same whether each group holds k or 4k entries below it —
// nothing below the group zone allocates per entry.
func TestAggregateAllocsFlat(t *testing.T) {
	specs := []AggSpec{{Fn: AggCount}, {Fn: AggCountDistinct, Attr: "D"},
		{Fn: AggSum, Attr: "X"}, {Fn: AggMax, Attr: "Y"}}
	allocs := func(k int) float64 {
		e := buildEnc(sessionTree(), func(n *ftree.Node) []relation.Value {
			w := map[relation.Attribute]int{"G": 8, "D": k}[n.Attrs[0]]
			if w == 0 {
				w = 2
			}
			out := make([]relation.Value, w)
			for i := range out {
				out[i] = relation.Value(i + 1)
			}
			return out
		})
		rows, err := e.Aggregate([]relation.Attribute{"G"}, specs)
		if err != nil || len(rows) != 8 || rows[0].Vals[1] != int64(k) {
			t.Fatalf("k=%d: rows %v, err %v", k, rows, err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Aggregate([]relation.Attribute{"G"}, specs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(40); small != large {
		t.Fatalf("allocations grow with entries: %v for 10 entries per group, %v for 40", small, large)
	}
}

// TestAggregateDistinctPlacements: COUNT DISTINCT agrees with
// enumerate-then-fold wherever its attribute sits relative to the group
// zone, serially and in parallel, and aggregation never writes through its
// views of the arena.
func TestAggregateDistinctPlacements(t *testing.T) {
	path := func(attrs ...relation.Attribute) *ftree.Node {
		root := ftree.NewNode(attrs[0])
		cur := root
		for _, a := range attrs[1:] {
			n := ftree.NewNode(a)
			cur.Add(n)
			cur = n
		}
		return root
	}
	cases := []struct {
		name    string
		roots   []*ftree.Node
		groupBy []relation.Attribute
	}{
		{"under the group zone", []*ftree.Node{path("G", "D", "X")}, []relation.Attribute{"G"}},
		{"two levels below", []*ftree.Node{path("G", "M", "D")}, []relation.Attribute{"G"}},
		{"inside the group zone", []*ftree.Node{path("D", "G", "X")}, []relation.Attribute{"G"}},
		{"in another root", []*ftree.Node{path("G", "X"), path("D", "M")}, []relation.Attribute{"G"}},
		{"no group by", []*ftree.Node{path("G", "M", "D")}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var rels []relation.AttrSet
			for _, r := range c.roots {
				rels = append(rels, relation.NewAttrSet(ftree.New([]*ftree.Node{r}, nil).Attrs().Sorted()...))
			}
			tr := ftree.New(c.roots, rels)
			specs := []AggSpec{{Fn: AggCount}, {Fn: AggCountDistinct, Attr: "D"}}
			for _, a := range tr.Attrs().Sorted() {
				if a != "D" {
					specs = append(specs, AggSpec{Fn: AggCountDistinct, Attr: a}, AggSpec{Fn: AggSum, Attr: a})
				}
			}
			for seed := int64(0); seed < 40; seed++ {
				e := buildEnc(tr, randomVals(rand.New(rand.NewSource(seed)), 5, 9))
				before := &Enc{Tree: e.Tree, A: Arena{Vals: slices.Clone(e.A.Vals), Offs: slices.Clone(e.A.Offs)},
					cols: e.cols, ti: e.ti}
				want := foldAgg(e, c.groupBy, specs)
				for _, p := range []int{1, 2, 3, 1} {
					got, err := e.AggregateParallel(c.groupBy, specs, p)
					if err != nil {
						t.Fatal(err)
					}
					if !rowsEqual(got, want) {
						t.Fatalf("seed %d, p=%d:\n got %v\nwant %v", seed, p, got, want)
					}
				}
				if !e.Equal(before) {
					t.Fatalf("seed %d: aggregation wrote into the arena", seed)
				}
			}
		})
	}
}

// TestAggregateContextCancelled: an already-cancelled context aborts a
// large grouped aggregate with its error, serially and with two workers.
func TestAggregateContextCancelled(t *testing.T) {
	e := buildEnc(sessionTree(), randomVals(rand.New(rand.NewSource(1)), 60, 64))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []AggSpec{{Fn: AggCount}, {Fn: AggCountDistinct, Attr: "D"}}
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			rows, err := e.AggregateParallelContext(ctx, []relation.Attribute{"G"}, specs, p)
			if !errors.Is(err, context.Canceled) || rows != nil {
				t.Fatalf("rows %v, err %v; want context.Canceled", rows, err)
			}
		})
	}
}
