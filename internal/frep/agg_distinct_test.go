package frep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
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
// of sibling entries overlap, so a run spanning sibling unions repeats
// values that a distinct count must count once.
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
// nothing below the group zone allocates per entry — and each further
// group costs at most three allocations: its row's Key and Vals, and a
// share of the growing row slice. The zone allocates no map or key per
// entry. With the distinct attribute two levels below the group (its run
// spans several unions, so it is counted over a sorted copy), the copy
// reuses one buffer: at most 2.5 allocations per further group.
func TestAggregateAllocsFlat(t *testing.T) {
	sessionSpecs := []AggSpec{{Fn: AggCount}, {Fn: AggCountDistinct, Attr: "D"},
		{Fn: AggSum, Attr: "X"}, {Fn: AggMax, Attr: "Y"}}
	allocs := func(tr func() *ftree.T, specs []AggSpec, groups, k int) float64 {
		e := buildEnc(tr(), func(n *ftree.Node) []relation.Value {
			w := map[relation.Attribute]int{"G": groups, "D": k}[n.Attrs[0]]
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
		if err != nil || len(rows) != groups || rows[0].Vals[1] != int64(k) {
			t.Fatalf("%d groups, k=%d: rows %v, err %v", groups, k, rows, err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Aggregate([]relation.Attribute{"G"}, specs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(sessionTree, sessionSpecs, 8, 10)
	if large := allocs(sessionTree, sessionSpecs, 8, 40); small != large {
		t.Fatalf("allocations grow with entries: %v for 10 entries per group, %v for 40", small, large)
	}
	if many := allocs(sessionTree, sessionSpecs, 32, 10); many-small > 3*(32-8) {
		t.Fatalf("allocations per group: %v for 8 groups, %v for 32 (at most 3 more per group)", small, many)
	}

	deep := func() *ftree.T { return pathTree("G", "M", "D") }
	deepSpecs := []AggSpec{{Fn: AggCount}, {Fn: AggCountDistinct, Attr: "D"}}
	small = allocs(deep, deepSpecs, 8, 10)
	if large := allocs(deep, deepSpecs, 8, 40); small != large {
		t.Fatalf("D two levels below G: allocations grow with entries: %v for 10 entries per union, %v for 40", small, large)
	}
	if many := allocs(deep, deepSpecs, 32, 10); many-small > 2.5*(32-8) {
		t.Fatalf("D two levels below G: allocations per group: %v for 8 groups, %v for 32 (at most 2.5 more per group)", small, many)
	}

	// The point workload's shape: a count and the maximum of a leaf below
	// the group node.
	leaf := func() *ftree.T { return pathTree("G", "D") }
	leafSpecs := []AggSpec{{Fn: AggCount}, {Fn: AggMax, Attr: "D"}}
	if small, large := allocs(leaf, leafSpecs, 8, 10), allocs(leaf, leafSpecs, 8, 40); small != large {
		t.Fatalf("MAX over a leaf below G: allocations grow with entries: %v for 10 entries per union, %v for 40", small, large)
	}
}

// TestAggregateDistinctPlacements: COUNT DISTINCT agrees with
// enumerate-then-fold wherever its attribute sits relative to the group
// zone, serially and in parallel, and aggregation never writes into the
// arena (distinct values are counted in place or over a private copy). A
// tree that is not lifted for the group-by attributes is refused.
func TestAggregateDistinctPlacements(t *testing.T) {
	branches := ftree.NewNode("G")
	branches.Add(chain("G2", "D"))
	branches.Add(chain("G3", "X"))
	cases := []struct {
		name    string
		roots   []*ftree.Node
		groupBy []relation.Attribute
		refused bool
	}{
		{"under the group zone", []*ftree.Node{chain("G", "D", "X")}, []relation.Attribute{"G"}, false},
		{"two levels below", []*ftree.Node{chain("G", "M", "D")}, []relation.Attribute{"G"}, false},
		{"inside the group zone", []*ftree.Node{chain("D", "G", "X")}, []relation.Attribute{"G"}, true},
		{"in another root", []*ftree.Node{chain("G", "X"), chain("D", "M")}, []relation.Attribute{"G"}, false},
		{"no group by", []*ftree.Node{chain("G", "M", "D")}, nil, false},
		{"two group branches", []*ftree.Node{branches}, []relation.Attribute{"G", "G2", "G3"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// One relation per root-to-leaf path.
			var rels []relation.AttrSet
			var paths func(n *ftree.Node, above []relation.Attribute)
			paths = func(n *ftree.Node, above []relation.Attribute) {
				above = append(slices.Clip(above), n.Attrs...)
				if len(n.Children) == 0 {
					rels = append(rels, relation.NewAttrSet(above...))
				}
				for _, ch := range n.Children {
					paths(ch, above)
				}
			}
			for _, r := range c.roots {
				paths(r, nil)
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
					if c.refused {
						if err == nil || !strings.Contains(err.Error(), "fplan.Lift") || got != nil {
							t.Fatalf("seed %d, p=%d: rows %v, err %v; want the error naming fplan.Lift", seed, p, got, err)
						}
						continue
					}
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

// TestAggregateContextCancelled: a cancelled context aborts an aggregate
// with its error, serially and with two workers: one cancelled before the
// pass, and one that turns cancelled after its first two polls, in a
// grouped pass over thousands of zone entries and in a global pass over
// several roots. The pass polls once before it starts, so the second only
// aborts if the pass polls as it goes.
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

	seq := func(k int) []relation.Value {
		out := make([]relation.Value, k)
		for i := range out {
			out[i] = relation.Value(i)
		}
		return out
	}
	grouped := buildEnc(pathTree("G", "X"), func(n *ftree.Node) []relation.Value {
		if n.Attrs[0] == "G" {
			return seq(4 * checkTick)
		}
		return seq(3)
	})
	var roots []*ftree.Node
	var rels []relation.AttrSet
	for _, a := range []relation.Attribute{"P", "Q", "R", "S"} {
		roots = append(roots, chain(a, a+"2"))
		rels = append(rels, relation.NewAttrSet(a, a+"2"))
	}
	below := randomVals(rand.New(rand.NewSource(2)), 4, 9)
	global := buildEnc(ftree.New(roots, rels), func(n *ftree.Node) []relation.Value {
		if len(n.Attrs[0]) == 1 { // a root
			return seq(1500)
		}
		return below(n)
	})
	cases := []struct {
		name    string
		e       *Enc
		groupBy []relation.Attribute
		specs   []AggSpec
	}{
		{"grouped mid-pass", grouped, []relation.Attribute{"G"}, []AggSpec{{Fn: AggCount}, {Fn: AggSum, Attr: "X"}}},
		{"global mid-pass", global, nil, []AggSpec{{Fn: AggCount}, {Fn: AggMax, Attr: "Q2"}, {Fn: AggCountDistinct, Attr: "S2"}}},
	}
	for _, c := range cases {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s, p=%d", c.name, p), func(t *testing.T) {
				ctx := &pollCtx{Context: context.Background()}
				ctx.left.Store(2)
				rows, err := c.e.AggregateParallelContext(ctx, c.groupBy, c.specs, p)
				if !errors.Is(err, context.Canceled) || rows != nil {
					t.Fatalf("rows %v, err %v after %d polls; want context.Canceled", rows, err, 2-ctx.left.Load())
				}
			})
		}
	}
}

// pollCtx is a context whose Err turns context.Canceled once its left
// polls are spent; workers poll it concurrently.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}
