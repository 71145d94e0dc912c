// Package delta is the mutation subsystem of the engine: per-relation delta
// logs with add/remove polarity over immutable base snapshots, composing an
// append-only chain of relation versions.
//
// A Store holds the current State of one relation behind an atomic pointer.
// Writers (serialised by the caller, typically under the database write
// lock) append a Batch and publish a fresh State; readers load the pointer
// and get a consistent, immutable version they can hold for as long as they
// like — snapshots are just retained State pointers, and the garbage
// collector keeps every arena and tuple they reference alive (the MVCC
// model of the append-only time-travel databases in the related work).
//
// Every stored version is a set sorted in schema order: FromRelation sorts
// a bulk-loaded base and drops its repeated tuples, and Fold — the one code
// that applies additions and removals to a tuple set, for Live and for every
// statement input kept in another column order — merges a sorted delta into
// a sorted set. Deltas follow set semantics: within one batch removals apply
// before additions, a removal of an absent tuple is a no-op, and an
// addition of a present tuple is a no-op. When the delta chain grows past
// the compaction policy (too many batches, or delta tuples dominating the
// base), Apply folds the chain into a new materialised base; NetSince then
// reports the history as unavailable and readers re-snapshot instead of
// merging.
package delta

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// maxBatches is the batch-count compaction threshold: one more applied
// batch folds the chain into a new base.
const maxBatches = 48

// compactFrac is the delta-fraction compaction threshold: the chain folds
// when the delta tuples exceed this fraction of the base cardinality.
const compactFrac = 0.5

// Batch is one applied write: tuples added and tuples removed, stamped with
// the database version at which it committed. Within a batch, removals
// apply before additions (so an Upsert is one batch: del old, add new).
type Batch struct {
	Ver  uint64
	Adds []relation.Tuple
	Dels []relation.Tuple
}

// size returns the number of delta tuples the batch carries.
func (b *Batch) size() int { return len(b.Adds) + len(b.Dels) }

// State is one immutable version of a relation: a materialised base
// snapshot plus the ordered delta batches applied since. States are never
// mutated after publication; Live's memoisation is internally synchronised.
type State struct {
	Ver     uint64 // version of the newest applied batch (BaseVer if none)
	BaseVer uint64 // version the base snapshot materialises
	Base    *relation.Relation
	Batches []*Batch // ascending Ver, all in (BaseVer, Ver]

	liveOnce sync.Once
	live     *relation.Relation
}

// DeltaSize returns the number of delta tuples across the state's batches.
func (s *State) DeltaSize() int {
	n := 0
	for _, b := range s.Batches {
		n += b.size()
	}
	return n
}

// Live returns the relation this state represents: Fold of the base and
// the net delta since it, NetSince(BaseVer). The materialisation runs once
// per state and is cached; the returned relation is shared — treat it as
// read-only. Like every base, it is sorted in schema order and
// duplicate-free.
func (s *State) Live() *relation.Relation {
	s.liveOnce.Do(func() {
		s.live = s.Base
		if adds, dels, _ := s.NetSince(s.BaseVer); len(adds)+len(dels) > 0 {
			s.live = Fold(s.Base, adds, dels, nil, schemaOrder(len(s.Base.Schema)))
		}
	})
	return s.live
}

// NetSince folds the batches newer than ver into net additions and net
// removals relative to the relation's content at ver: the touches are
// stably sorted in schema order, so each tuple's last touch — its final
// polarity — ends its run. The two lists are disjoint, duplicate-free and
// sorted in schema order. ok is false when ver predates the base snapshot —
// the history has been compacted away and the caller must re-snapshot via
// Live instead.
func (s *State) NetSince(ver uint64) (adds, dels []relation.Tuple, ok bool) {
	if ver < s.BaseVer {
		return nil, nil, false
	}
	if ver >= s.Ver {
		return nil, nil, true
	}
	type touch struct {
		t   relation.Tuple
		add bool
	}
	var touches []touch
	for _, b := range s.Batches {
		if b.Ver <= ver {
			continue
		}
		for _, t := range b.Dels {
			touches = append(touches, touch{t, false})
		}
		for _, t := range b.Adds {
			touches = append(touches, touch{t, true})
		}
	}
	slices.SortStableFunc(touches, func(a, b touch) int { return a.t.Compare(b.t) })
	for i, tc := range touches {
		if i+1 < len(touches) && touches[i+1].t.Compare(tc.t) == 0 {
			continue // a later touch of the same tuple wins
		}
		if tc.add {
			adds = append(adds, tc.t)
		} else {
			dels = append(dels, tc.t)
		}
	}
	return adds, dels, true
}

// Fold returns old with a delta applied, and is the one place additions and
// removals meet a tuple set: old must be sorted by perm (a column
// permutation that covers every column) and duplicate-free, and so is the
// result, which shares tuple storage with old. The delta's tuples that keep
// (nil: all) passes are copied, sorted and deduplicated first — the delta
// is shared with every other reader and is never written — so it may be a
// whole relation with repeated rows folded into an empty set. Removals
// apply before additions; an addition already present and a removal of an
// absent tuple are no-ops.
func Fold(old *relation.Relation, adds, dels []relation.Tuple, keep func(relation.Tuple) bool, perm []int) *relation.Relation {
	cmp := func(a, b relation.Tuple) int { return relation.ComparePerm(a, b, perm) }
	sortTuples := func(ts []relation.Tuple) []relation.Tuple {
		out := make([]relation.Tuple, 0, len(ts))
		for _, t := range ts {
			if keep == nil || keep(t) {
				out = append(out, t)
			}
		}
		relation.SortPerm(out, perm)
		return slices.CompactFunc(out, func(a, b relation.Tuple) bool { return cmp(a, b) == 0 })
	}
	adds, dels = sortTuples(adds), sortTuples(dels)
	out := relation.New(old.Name, old.Schema)
	out.Tuples = make([]relation.Tuple, 0, len(old.Tuples)+len(adds))
	ai, di := 0, 0
	for _, t := range old.Tuples {
		for di < len(dels) && cmp(dels[di], t) < 0 {
			di++ // removal of an absent tuple: no-op
		}
		if di < len(dels) && cmp(dels[di], t) == 0 {
			di++
			continue
		}
		for ai < len(adds) && cmp(adds[ai], t) < 0 {
			out.Tuples = append(out.Tuples, adds[ai])
			ai++
		}
		if ai < len(adds) && cmp(adds[ai], t) == 0 {
			ai++ // addition of a present tuple: no-op
		}
		out.Tuples = append(out.Tuples, t)
	}
	out.Tuples = append(out.Tuples, adds[ai:]...)
	return out
}

// schemaOrder is the column permutation of schema order over n columns, the
// order every stored version keeps.
func schemaOrder(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// Store is the versioned home of one relation. The current State sits
// behind an atomic pointer: readers load it lock-free; writers (serialised
// externally) build a successor state and publish it.
type Store struct {
	Name   string
	Schema relation.Schema

	state atomic.Pointer[State]
}

// NewStore creates an empty store at the given version.
func NewStore(name string, schema relation.Schema, ver uint64) *Store {
	s := &Store{Name: name, Schema: schema}
	s.state.Store(&State{Ver: ver, BaseVer: ver, Base: relation.New(name, schema)})
	return s
}

// FromRelation creates a store whose base is the given relation (bulk
// load); the store takes ownership of rel and makes it a set, sorting it in
// schema order and dropping repeated tuples in place.
func FromRelation(rel *relation.Relation, ver uint64) *Store {
	rel.Dedup()
	s := &Store{Name: rel.Name, Schema: rel.Schema}
	s.state.Store(&State{Ver: ver, BaseVer: ver, Base: rel})
	return s
}

// State returns the current version, lock-free. The result is immutable;
// holding it pins the version (and everything it references) alive.
func (s *Store) State() *State { return s.state.Load() }

// Apply appends one batch at version ver and publishes the successor state,
// compacting the chain when the policy says so. Callers must serialise
// Apply externally (the database write lock); ver must exceed the current
// state's version.
func (s *Store) Apply(adds, dels []relation.Tuple, ver uint64) *State {
	cur := s.state.Load()
	if len(adds) == 0 && len(dels) == 0 {
		return cur
	}
	batches := make([]*Batch, 0, len(cur.Batches)+1)
	batches = append(batches, cur.Batches...)
	batches = append(batches, &Batch{Ver: ver, Adds: adds, Dels: dels})
	next := &State{Ver: ver, BaseVer: cur.BaseVer, Base: cur.Base, Batches: batches}
	if shouldCompact(next) {
		next = compacted(next)
	}
	s.state.Store(next)
	return next
}

// Compact folds the current chain into a new materialised base at the
// current version. Callers must serialise with Apply.
func (s *Store) Compact() *State {
	cur := s.state.Load()
	if len(cur.Batches) == 0 {
		return cur
	}
	next := compacted(cur)
	s.state.Store(next)
	return next
}

// compacted returns the state with its chain folded into the base.
func compacted(cur *State) *State {
	return &State{Ver: cur.Ver, BaseVer: cur.Ver, Base: cur.Live()}
}

func shouldCompact(next *State) bool {
	if len(next.Batches) > maxBatches {
		return true
	}
	base := next.Base.Cardinality()
	if base < 16 {
		base = 16 // tiny bases: let a few batches accumulate regardless
	}
	return float64(next.DeltaSize()) > compactFrac*float64(base)
}
