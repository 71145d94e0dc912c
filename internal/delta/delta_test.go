package delta

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relation"
)

func sch(attrs ...string) relation.Schema {
	out := make(relation.Schema, len(attrs))
	for i, a := range attrs {
		out[i] = relation.Attribute(a)
	}
	return out
}

func tup(vals ...int) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

func rows(r *relation.Relation) []string {
	out := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = fmt.Sprint(t)
	}
	return out
}

func wantRows(t *testing.T, r *relation.Relation, want ...relation.Tuple) {
	t.Helper()
	if len(r.Tuples) != len(want) {
		t.Fatalf("got %d tuples %v, want %d %v", len(r.Tuples), rows(r), len(want), want)
	}
	for i := range want {
		if r.Tuples[i].Compare(want[i]) != 0 {
			t.Fatalf("tuple %d: got %v, want %v (all: %v)", i, r.Tuples[i], want[i], rows(r))
		}
	}
}

func TestLiveSetSemantics(t *testing.T) {
	s := NewStore("R", sch("R.a", "R.b"), 0)
	s.Apply([]relation.Tuple{tup(1, 1), tup(2, 2)}, nil, 1)
	// Duplicate add is a no-op; delete of absent tuple is a no-op.
	s.Apply([]relation.Tuple{tup(1, 1), tup(3, 3)}, []relation.Tuple{tup(9, 9)}, 2)
	s.Apply(nil, []relation.Tuple{tup(2, 2)}, 3)
	wantRows(t, s.State().Live(), tup(1, 1), tup(3, 3))

	// Dels before adds within one batch: delete+re-add keeps the tuple.
	s.Apply([]relation.Tuple{tup(1, 1)}, []relation.Tuple{tup(1, 1)}, 4)
	wantRows(t, s.State().Live(), tup(1, 1), tup(3, 3))

	// Live is memoised per state and identical across calls.
	st := s.State()
	if st.Live() != st.Live() {
		t.Fatal("Live not memoised")
	}
}

func TestLiveBaseOrderAndReAdd(t *testing.T) {
	base := relation.New("R", sch("R.a"))
	base.AppendTuple(tup(5))
	base.AppendTuple(tup(3))
	base.AppendTuple(tup(7))
	base.AppendTuple(tup(3))
	s := FromRelation(base, 10)
	// The store owns the base and makes it a set in schema order.
	wantRows(t, s.State().Live(), tup(3), tup(5), tup(7))
	// Delete a base tuple, then re-add it: it is live again, in its sorted
	// place (final polarity alive, key present in base).
	s.Apply(nil, []relation.Tuple{tup(3)}, 11)
	wantRows(t, s.State().Live(), tup(5), tup(7))
	s.Apply([]relation.Tuple{tup(3), tup(1)}, nil, 12)
	wantRows(t, s.State().Live(), tup(1), tup(3), tup(5), tup(7))
}

// TestFoldFilters: a fold keeps only the delta tuples the filter passes,
// sorts and dedups them in the fold's column order — a whole relation with
// repeated rows folds into an empty set as a load — and never writes the
// delta, which is shared with every other reader, nor the held set.
func TestFoldFilters(t *testing.T) {
	idx := []int{1, 0}
	keep := func(tp relation.Tuple) bool { return tp[0] != 3 }
	ts := []relation.Tuple{{5, 6}, {3, 4}, {1, 2}, {5, 6}}
	loaded := Fold(relation.New("R", nil), ts, nil, keep, idx)
	if fmt.Sprint(loaded.Tuples) != "[[1 2] [5 6]]" || fmt.Sprint(ts) != "[[5 6] [3 4] [1 2] [5 6]]" {
		t.Fatalf("loaded %v, delta left %v", loaded.Tuples, ts)
	}
	adds, dels := []relation.Tuple{{7, 0}, {3, 9}, {1, 2}}, []relation.Tuple{{5, 6}, {9, 9}}
	got := Fold(loaded, adds, dels, keep, idx)
	if fmt.Sprint(got.Tuples) != "[[7 0] [1 2]]" || fmt.Sprint(loaded.Tuples) != "[[1 2] [5 6]]" {
		t.Fatalf("folded %v, held set left %v", got.Tuples, loaded.Tuples)
	}
}

// TestLiveMatchesModel drives random histories over a 16-tuple domain —
// repeated and cancelling touches within and across batches, a bulk load
// with repeated rows, Compact at random points — and pins states as it
// goes. Every version's Live must be sorted, duplicate-free and equal to a
// map model that applies each batch's removals and then its additions, and
// folding the head's net delta since a pinned version into that version's
// Live must give the head's Live.
func TestLiveMatchesModel(t *testing.T) {
	type pin struct {
		st    *State
		model map[[2]relation.Value]bool
	}
	// check requires live to be a sorted set and, given a model, to equal it.
	check := func(seed int64, ver uint64, live *relation.Relation, model map[[2]relation.Value]bool) {
		t.Helper()
		for i, tp := range live.Tuples {
			if i > 0 && live.Tuples[i-1].Compare(tp) >= 0 {
				t.Fatalf("seed %d ver %d: not a sorted set: %v", seed, ver, rows(live))
			}
			if model != nil && !model[[2]relation.Value{tp[0], tp[1]}] {
				t.Fatalf("seed %d ver %d: live holds %v, the model does not", seed, ver, tp)
			}
		}
		if model != nil && len(live.Tuples) != len(model) {
			t.Fatalf("seed %d ver %d: live has %d tuples, the model %d: %v", seed, ver, len(live.Tuples), len(model), rows(live))
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		some := func(n int) []relation.Tuple {
			out := make([]relation.Tuple, rng.Intn(n+1))
			for i := range out {
				out[i] = tup(rng.Intn(4), rng.Intn(4))
			}
			return out
		}
		model := map[[2]relation.Value]bool{}
		base := relation.New("R", sch("R.a", "R.b"))
		for _, tp := range some(12) {
			base.AppendTuple(tp)
			model[[2]relation.Value{tp[0], tp[1]}] = true
		}
		s := FromRelation(base, 0)
		check(seed, 0, s.State().Base, model)
		var pins []pin
		for v := uint64(1); v <= 40; v++ {
			adds, dels := some(5), some(3)
			if len(adds) > 0 && rng.Intn(3) == 0 {
				dels = append(dels, adds[0]) // cancelling touch within the batch
			}
			for _, tp := range dels {
				delete(model, [2]relation.Value{tp[0], tp[1]})
			}
			for _, tp := range adds {
				model[[2]relation.Value{tp[0], tp[1]}] = true
			}
			s.Apply(adds, dels, v)
			if rng.Intn(8) == 0 {
				s.Compact()
			}
			st := s.State()
			check(seed, v, st.Base, nil)
			if rng.Intn(4) == 0 {
				// A pinned state's Live is first read after the later writes.
				pins = append(pins, pin{st, maps.Clone(model)})
				continue
			}
			check(seed, v, st.Live(), model)
		}
		head := s.State()
		for _, p := range pins {
			check(seed, p.st.Ver, p.st.Live(), p.model)
			adds, dels, ok := head.NetSince(p.st.Ver)
			if !ok {
				continue // compacted away beneath the pinned version
			}
			got := Fold(p.st.Live(), adds, dels, nil, []int{0, 1})
			if fmt.Sprint(got.Tuples) != fmt.Sprint(head.Live().Tuples) {
				t.Fatalf("seed %d: fold since %d = %v, head live %v", seed, p.st.Ver, rows(got), rows(head.Live()))
			}
		}
	}
}

func TestNetSince(t *testing.T) {
	s := NewStore("R", sch("R.a"), 0)
	s.Apply([]relation.Tuple{tup(1)}, nil, 1)
	s.Apply([]relation.Tuple{tup(2)}, []relation.Tuple{tup(1)}, 2)
	s.Apply([]relation.Tuple{tup(1)}, []relation.Tuple{tup(2)}, 3)

	st := s.State()
	adds, dels, ok := st.NetSince(1)
	if !ok {
		t.Fatal("history unexpectedly compacted")
	}
	// Since ver 1: tuple 2 added then removed (net nothing... last polarity
	// del, but it was absent at ver 1? No: NetSince reports polarity, the
	// merge layer treats a del of an absent tuple as a no-op), tuple 1
	// removed then re-added (net add of a present tuple: no-op downstream).
	if len(adds) != 1 || adds[0].Compare(tup(1)) != 0 {
		t.Fatalf("adds = %v, want [[1]]", adds)
	}
	if len(dels) != 1 || dels[0].Compare(tup(2)) != 0 {
		t.Fatalf("dels = %v, want [[2]]", dels)
	}

	// At the current version the delta is empty.
	if a, d, ok := st.NetSince(3); !ok || len(a) != 0 || len(d) != 0 {
		t.Fatalf("NetSince(current) = %v %v %v", a, d, ok)
	}

	// Compaction makes earlier versions unavailable.
	s.Compact()
	if _, _, ok := s.State().NetSince(1); ok {
		t.Fatal("NetSince should fail after compaction")
	}
	if _, _, ok := s.State().NetSince(3); !ok {
		t.Fatal("NetSince at the compacted version should succeed")
	}
}

func TestCompactionPolicyBatchCount(t *testing.T) {
	// A 100-tuple base keeps 49 one-tuple batches under the half-base
	// fraction trigger, so only the batch count folds the chain.
	base := relation.New("R", sch("R.a"))
	for i := 0; i < 100; i++ {
		base.AppendTuple(tup(i))
	}
	s := FromRelation(base, 0)
	for i := 1; i <= maxBatches; i++ {
		s.Apply([]relation.Tuple{tup(100 + i)}, nil, uint64(i))
	}
	if got := len(s.State().Batches); got != maxBatches {
		t.Fatalf("batches = %d, want %d (no compaction yet)", got, maxBatches)
	}
	s.Apply([]relation.Tuple{tup(100 + maxBatches + 1)}, nil, maxBatches+1)
	st := s.State()
	if len(st.Batches) != 0 || st.BaseVer != maxBatches+1 {
		t.Fatalf("expected compaction at batch %d: batches=%d baseVer=%d", maxBatches+1, len(st.Batches), st.BaseVer)
	}
	if got, want := st.Live().Cardinality(), 100+maxBatches+1; got != want {
		t.Fatalf("compacted cardinality = %d, want %d", got, want)
	}
}

func TestCompactionPolicyDeltaFraction(t *testing.T) {
	base := relation.New("R", sch("R.a"))
	for i := 0; i < 100; i++ {
		base.AppendTuple(tup(i))
	}
	s := FromRelation(base, 0)
	var adds []relation.Tuple
	for i := 100; i < 140; i++ {
		adds = append(adds, tup(i))
	}
	s.Apply(adds, nil, 1) // 40 < 50: no compaction
	if len(s.State().Batches) != 1 {
		t.Fatalf("unexpected compaction at 40%% delta")
	}
	var more []relation.Tuple
	for i := 140; i < 160; i++ {
		more = append(more, tup(i))
	}
	s.Apply(more, nil, 2) // 60 > 50: fold
	st := s.State()
	if len(st.Batches) != 0 || st.BaseVer != 2 || st.Base.Cardinality() != 160 {
		t.Fatalf("expected fold: batches=%d baseVer=%d card=%d", len(st.Batches), st.BaseVer, st.Base.Cardinality())
	}
}

func TestEmptyApplyAndCompactNoop(t *testing.T) {
	s := NewStore("R", sch("R.a"), 7)
	before := s.State()
	if s.Apply(nil, nil, 8) != before {
		t.Fatal("empty Apply should return the current state unchanged")
	}
	if s.Compact() != before {
		t.Fatal("Compact of a chainless state should be a no-op")
	}
	if before.Ver != 7 || before.BaseVer != 7 || before.Base.Cardinality() != 0 {
		t.Fatalf("fresh state: %+v", before)
	}
}

func TestSnapshotPinsVersion(t *testing.T) {
	s := NewStore("R", sch("R.a"), 0)
	s.Apply([]relation.Tuple{tup(1)}, nil, 1)
	pinned := s.State()
	s.Apply([]relation.Tuple{tup(2)}, nil, 2)
	s.Compact()
	wantRows(t, pinned.Live(), tup(1))
	wantRows(t, s.State().Live(), tup(1), tup(2))
	if pinned.Ver != 1 || s.State().Ver != 2 {
		t.Fatalf("versions: pinned=%d current=%d", pinned.Ver, s.State().Ver)
	}
}

// Readers load states lock-free while a serialised writer applies batches
// and compacts; every loaded state must stay internally consistent. Run
// with -race.
func TestConcurrentReadersUnderWrites(t *testing.T) {
	s := NewStore("R", sch("R.a", "R.b"), 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.State()
				live := st.Live()
				if live.Cardinality() > 0 && len(live.Tuples[0]) != 2 {
					t.Error("corrupt tuple")
					return
				}
				if _, _, ok := st.NetSince(st.BaseVer); !ok {
					t.Error("NetSince(BaseVer) must succeed")
					return
				}
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		if i%3 == 0 {
			s.Apply(nil, []relation.Tuple{tup(i-1, i-1)}, uint64(i))
		} else {
			s.Apply([]relation.Tuple{tup(i, i)}, nil, uint64(i))
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkLive materialises a 100k-tuple base under 48 pending batches of
// 100 additions and 50 removals each — the longest chain the compaction
// policy keeps — once per iteration, on a fresh state each time (Live is
// memoised per state).
func BenchmarkLive(b *testing.B) {
	base := relation.New("R", sch("R.a", "R.b"))
	for i := 0; i < 100000; i++ {
		base.AppendTuple(tup(i/4, i%4))
	}
	s := FromRelation(base, 0)
	for v := 1; v <= maxBatches; v++ {
		var adds, dels []relation.Tuple
		for i := 0; i < 100; i++ {
			adds = append(adds, tup(100000+v*100+i, 0))
		}
		for i := 0; i < 50; i++ {
			dels = append(dels, tup(v*500+i, 1))
		}
		s.Apply(adds, dels, uint64(v))
	}
	cur := s.State()
	if len(cur.Batches) != maxBatches {
		b.Fatalf("the chain compacted: %d batches", len(cur.Batches))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &State{Ver: cur.Ver, BaseVer: cur.BaseVer, Base: cur.Base, Batches: cur.Batches}
		if st.Live().Cardinality() != 100000+maxBatches*50 {
			b.Fatal("wrong cardinality")
		}
	}
}
