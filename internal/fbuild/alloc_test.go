package fbuild

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// q1Tree is the f-tree of the grocery query Q1 = Orders ⋈ Store ⋈ Disp:
// item → {oid, location → dispatcher}.
func q1Tree() *ftree.T {
	loc := ftree.NewNode("s_location", "d_location").Add(ftree.NewNode("d_dispatcher"))
	item := ftree.NewNode("o_item", "s_item").Add(ftree.NewNode("o_oid"), loc)
	return ftree.New([]*ftree.Node{item}, []relation.AttrSet{
		relation.NewAttrSet("o_oid", "o_item"),
		relation.NewAttrSet("s_location", "s_item"),
		relation.NewAttrSet("d_dispatcher", "d_location"),
	})
}

// q1Inputs are Q1's relations over n items, sorted for q1Tree: every item
// has four orders and is stocked at three of n/2 locations, and every
// location has two dispatchers. The join has 18n singletons over q1Tree.
func q1Inputs(tb testing.TB, n int) []*relation.Relation {
	orders := relation.New("Orders", relation.Schema{"o_oid", "o_item"})
	store := relation.New("Store", relation.Schema{"s_location", "s_item"})
	disp := relation.New("Disp", relation.Schema{"d_dispatcher", "d_location"})
	locs := n / 2
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			orders.Append(relation.Value(4*i+k), relation.Value(i))
		}
		for k := 0; k < 3; k++ {
			store.Append(relation.Value((i+k)%locs), relation.Value(i))
		}
	}
	for l := 0; l < locs; l++ {
		disp.Append(relation.Value(2*l), relation.Value(l))
		disp.Append(relation.Value(2*l+1), relation.Value(l))
	}
	rels := []*relation.Relation{orders, store, disp}
	if err := SortFor(rels, q1Tree()); err != nil {
		tb.Fatal(err)
	}
	return rels
}

// pointTree is item_point's order-forced tree over Q1: oid → location →
// {dispatcher, item}.
func pointTree() *ftree.T {
	loc := ftree.NewNode("s_location", "d_location").Add(ftree.NewNode("d_dispatcher"), ftree.NewNode("o_item", "s_item"))
	return ftree.New([]*ftree.Node{ftree.NewNode("o_oid").Add(loc)}, q1Tree().Rels)
}

// pointInputs are q1Inputs(n) with Orders narrowed to 4n orders of one
// item, as item_point's selection leaves it, sorted for pointTree. The
// location subtree is the same under every oid, so memo hits dominate.
func pointInputs(tb testing.TB, n int) []*relation.Relation {
	rels := q1Inputs(tb, n)
	orders := relation.New("Orders", relation.Schema{"o_oid", "o_item"})
	for o := 0; o < 4*n; o++ {
		orders.Append(relation.Value(o), 0)
	}
	rels[0] = orders
	if err := SortFor(rels, pointTree()); err != nil {
		tb.Fatal(err)
	}
	return rels
}

// TestBuildAllocsFlat: once a build has warmed the column pool, building
// four times the singletons over the same tree makes as many allocations,
// a few per tree node and none per union or per value (memo hits
// included, on item_point's tree), and allocates the output arena plus a
// slack that does not grow with the data: every builder column comes from
// the pool with room to spare, so no column grows.
func TestBuildAllocsFlat(t *testing.T) {
	for _, c := range []struct {
		name   string
		tree   *ftree.T
		inputs func(testing.TB, int) []*relation.Relation
	}{{"q1", q1Tree(), q1Inputs}, {"point", pointTree(), pointInputs}} {
		build := func(n int) (allocs, overArena float64, singletons int) {
			rels := c.inputs(t, n)
			e, err := BuildEnc(rels, c.tree)
			if err != nil {
				t.Fatal(err)
			}
			allocs, bytes := warmBuild(t, rels, c.tree)
			arena := cap(e.A.Vals)*int(unsafe.Sizeof(e.A.Vals[0])) + cap(e.A.Offs)*int(unsafe.Sizeof(e.A.Offs[0]))
			return allocs, bytes - float64(arena), e.Size()
		}
		small, sOver, ss := build(500)
		large, lOver, ls := build(2000)
		if ls < 4*ss {
			t.Fatalf("%s: %d singletons are not 4x %d", c.name, ls, ss)
		}
		t.Logf("%s: %v allocs and arena + %v B for %d singletons, %v and arena + %v B for %d",
			c.name, small, sOver, ss, large, lOver, ls)
		const allocSlack, byteSlack = 4, 32 << 10
		if large > small+allocSlack {
			t.Fatalf("%s: allocations grow with the data: %v for %d singletons, %v for %d", c.name, small, ss, large, ls)
		}
		if lOver > byteSlack {
			t.Fatalf("%s: a warm build of %d singletons allocates %v B past its arena (at most %d)", c.name, ls, lOver, byteSlack)
		}
	}
}

// warmBuild returns the allocations and bytes of a warm build of rels
// over tr: the least over 31 builds, the first of which fills the column
// pool. Like testing.AllocsPerRun it runs on one P, whose pool the builds
// share, and it pauses the GC, which would empty the pool. The least, not
// the mean: under the race detector sync.Pool drops a random quarter of
// what it is given, and a build that finds no columns grows them afresh.
func warmBuild(t *testing.T, rels []*relation.Relation, tr *ftree.T) (allocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	allocs, bytes = math.Inf(1), math.Inf(1)
	for range 31 {
		runtime.ReadMemStats(&before)
		if _, err := BuildEnc(rels, tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = math.Min(allocs, float64(after.Mallocs-before.Mallocs))
		bytes = math.Min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return allocs, bytes
}

// BenchmarkBuildEnc times the serial build of Q1 over inputs sorted
// beforehand, on a fixed tree, per singleton of the result. The tree has
// no memoised node.
func BenchmarkBuildEnc(b *testing.B) {
	benchBuild(b, q1Tree(), q1Inputs(b, 4000), nil)
}

// BenchmarkBuildEncOrdered is BenchmarkBuildEnc on item_point's tree over
// a one-item Orders, where the location subtree is built once and copied
// under every other oid. It also reports the entries, over all nodes, that
// each build copied and built.
func BenchmarkBuildEncOrdered(b *testing.B) {
	benchBuild(b, pointTree(), pointInputs(b, 4000), countMemo(b))
}

func benchBuild(b *testing.B, tr *ftree.T, rels []*relation.Relation, memo *memoCounts) {
	e, err := BuildEnc(rels, tr)
	if err != nil {
		b.Fatal(err)
	}
	if memo != nil {
		memo.copied.Store(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildEnc(rels, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*e.Size()), "ns/singleton")
	if memo != nil {
		entries := 0
		for ni := range e.NodeCount() {
			entries += e.NumEntries(ni)
		}
		copied := float64(memo.copied.Load()) / float64(b.N)
		b.ReportMetric(copied, "copied/op")
		b.ReportMetric(float64(entries)-copied, "built/op")
	}
}
