package delta

import (
	"fmt"
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
	s := FromRelation(base, 10)
	// Delete a base tuple, then re-add it: it keeps its base position
	// (final polarity alive, key present in base).
	s.Apply(nil, []relation.Tuple{tup(3)}, 11)
	s.Apply([]relation.Tuple{tup(3), tup(1)}, nil, 12)
	wantRows(t, s.State().Live(), tup(5), tup(3), tup(7), tup(1))
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
