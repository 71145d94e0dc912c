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
// Deltas follow set semantics: within one batch removals apply before
// additions, a removal of an absent tuple is a no-op, and an addition of a
// present tuple is a no-op. When the delta chain grows past the compaction
// policy (too many batches, or delta tuples dominating the base), Apply
// folds the chain into a new materialised base; NetSince then reports the
// history as unavailable and readers re-snapshot instead of merging.
package delta

import (
	"encoding/binary"
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

// tupleKey renders a tuple as a fixed-width byte-string map key.
func tupleKey(t relation.Tuple) string {
	buf := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	return string(buf)
}

// DeltaSize returns the number of delta tuples across the state's batches.
func (s *State) DeltaSize() int {
	n := 0
	for _, b := range s.Batches {
		n += b.size()
	}
	return n
}

// Live returns the relation this state represents: the base with every
// batch applied under set semantics. The materialisation runs once per
// state and is cached; the returned relation is shared — treat it as
// read-only. Tuple order is deterministic: base order first, then additions
// in first-application order.
func (s *State) Live() *relation.Relation {
	s.liveOnce.Do(func() {
		if len(s.Batches) == 0 {
			s.live = s.Base
			return
		}
		// alive is each touched tuple's final polarity; addOrder keeps the
		// first time a (finally alive) tuple was added, for determinism.
		alive := make(map[string]bool)
		var addOrder []relation.Tuple
		seen := make(map[string]bool)
		for _, b := range s.Batches {
			for _, t := range b.Dels {
				alive[tupleKey(t)] = false
			}
			for _, t := range b.Adds {
				k := tupleKey(t)
				alive[k] = true
				if !seen[k] {
					seen[k] = true
					addOrder = append(addOrder, t)
				}
			}
		}
		base := make(map[string]bool, s.Base.Cardinality())
		out := relation.New(s.Base.Name, s.Base.Schema)
		out.Tuples = make([]relation.Tuple, 0, s.Base.Cardinality()+len(addOrder))
		for _, t := range s.Base.Tuples {
			k := tupleKey(t)
			base[k] = true
			if v, touched := alive[k]; touched && !v {
				continue
			}
			out.Tuples = append(out.Tuples, t)
		}
		emitted := make(map[string]bool)
		for _, t := range addOrder {
			k := tupleKey(t)
			if alive[k] && !base[k] && !emitted[k] {
				emitted[k] = true
				out.Tuples = append(out.Tuples, t)
			}
		}
		s.live = out
	})
	return s.live
}

// NetSince folds the batches newer than ver into net additions and net
// removals relative to the relation's content at ver (last polarity wins;
// the two lists are disjoint and duplicate-free, in first-touch order).
// ok is false when ver predates the base snapshot — the history has been
// compacted away and the caller must re-snapshot via Live instead.
func (s *State) NetSince(ver uint64) (adds, dels []relation.Tuple, ok bool) {
	if ver < s.BaseVer {
		return nil, nil, false
	}
	if ver >= s.Ver {
		return nil, nil, true
	}
	final := make(map[string]bool)
	var order []relation.Tuple
	seen := make(map[string]bool)
	note := func(t relation.Tuple, add bool) {
		k := tupleKey(t)
		final[k] = add
		if !seen[k] {
			seen[k] = true
			order = append(order, t)
		}
	}
	for _, b := range s.Batches {
		if b.Ver <= ver {
			continue
		}
		for _, t := range b.Dels {
			note(t, false)
		}
		for _, t := range b.Adds {
			note(t, true)
		}
	}
	for _, t := range order {
		if final[tupleKey(t)] {
			adds = append(adds, t)
		} else {
			dels = append(dels, t)
		}
	}
	return adds, dels, true
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
// load); the store takes ownership of rel.
func FromRelation(rel *relation.Relation, ver uint64) *Store {
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
