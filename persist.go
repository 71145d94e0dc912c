package fdb

import (
	"fmt"

	"repro/internal/delta"
	"repro/internal/frep"
	"repro/internal/relation"
	"repro/internal/store"
)

// SaveSnapshot writes the database to path in the zero-copy snapshot format
// (internal/store): the dictionary's code table, every relation's live
// tuples at one consistent version cut and its attributes' kinds, and one
// arena per live data holder whose memoised encoded representation
// reflects exactly that cut, named by the holder's key (srcKey) — so a
// database reopened from the file serves the first query of any statement
// over that data without a build, however it was prepared. A holder lives
// while a statement holds it: the plan cache keeps cached statements', a
// caller keeps the ones it prepared. The write is atomic (temp file +
// rename) and the file records the global write version and each
// relation's delta-store version, which OpenSnapshotFile restores verbatim.
func (db *DB) SaveSnapshot(path string) error {
	snap := db.Snapshot()
	defer snap.Close()
	set := &store.Set{Ver: snap.ver, Dict: db.dict.Snapshot()}
	kinds := db.kinds()
	for _, name := range snap.Relations() {
		st := snap.states[name]
		live := st.Live()
		// Private slice header over the immutable live tuples: the writer
		// only reads, and the version chain is never mutated in place.
		rel := relation.New(live.Name, live.Schema)
		rel.Tuples = live.Tuples[:len(live.Tuples):len(live.Tuples)]
		set.Rels = append(set.Rels, store.Relation{Ver: st.Ver, Rel: rel, Kinds: kindsOf(kinds, rel.Schema)})
	}
	for _, src := range db.srcs.live() {
		if se, ok := persistableEnc(src, snap.states); ok {
			set.Encs = append(set.Encs, se)
		}
	}
	return store.Write(path, set)
}

// persistableEnc decides whether a holder's memoised encoding can ride along
// in the snapshot: its data loaded and the encoding built, and every input
// version equal to the version the snapshot is cutting — otherwise the enc
// describes data the file does not contain.
func persistableEnc(src *stmtSrc, states map[string]*delta.State) (store.Enc, bool) {
	d := src.data.Load()
	if d == nil {
		return store.Enc{}, false // prepared, never executed
	}
	d.mu.Lock()
	enc := d.enc
	d.mu.Unlock()
	if enc == nil {
		return store.Enc{}, false
	}
	inputs := make([]store.Input, len(src.names))
	for i, name := range src.names {
		s, ok := states[name]
		if !ok || s.Ver != d.vers[i] {
			return store.Enc{}, false
		}
		inputs[i] = store.Input{Name: name, Ver: d.vers[i]}
	}
	return store.Enc{Key: src.key, Inputs: inputs, Enc: enc}, true
}

// OpenSnapshotFile opens a database from a snapshot file written by
// SaveSnapshot. The file is memory-mapped when the platform allows (read
// into the heap otherwise): relation tuples and any snapshot-carried
// encodings are zero-copy views into the mapping, so opening costs
// validation — header, checksums, structural invariants — instead of a
// parse and build. Carried encodings are indexed by holder key, and the
// first execution of any live statement, cached or not, whose data holder
// has that key adopts one with no build at all; an arena saved under any
// other name matches no holder, and its statements build as usual. The
// mapping stays referenced for the lifetime of the returned database; the
// database is fully writable — the first mutation simply layers delta
// batches over the mapped base like any other bulk-loaded relation.
//
// The mapped file is the database's storage, so it must not change while
// the database lives. Replace a served snapshot by rename — what
// SaveSnapshot does (temp file + rename; it never truncates or rewrites a
// file in place), which leaves the old mapping intact. Truncating or
// overwriting the file in place is unsupported: the checksums are not
// re-read, and a page past the new end of file faults the process (SIGBUS).
func OpenSnapshotFile(path string) (*DB, error) {
	f, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	db, err := newFromStore(f)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return db, nil
}

// newFromStore builds a DB over an opened store.File, cross-checking the
// file's version bookkeeping before adopting anything. The file fixes the
// attributes' kinds; values it records no kind for are integers.
func newFromStore(f *store.File) (*DB, error) {
	db := New()
	dict, err := relation.NewDictFromStrings(f.Dict)
	if err != nil {
		return nil, fmt.Errorf("fdb: open snapshot: %w", err)
	}
	db.dict = dict
	for _, sr := range f.Rels {
		if sr.Ver > f.Ver {
			return nil, fmt.Errorf("fdb: open snapshot: relation %q version %d exceeds database version %d",
				sr.Rel.Name, sr.Ver, f.Ver)
		}
		for c, k := range sr.Kinds {
			if k == relation.KindNone && len(sr.Rel.Tuples) > 0 {
				sr.Kinds[c] = relation.KindInt
			}
		}
		db.fixKinds(sr.Rel.Schema, sr.Kinds)
		db.stores[sr.Rel.Name] = delta.FromRelation(sr.Rel, sr.Ver)
		db.ord = append(db.ord, sr.Rel.Name)
	}
	db.ver = f.Ver
	if len(f.Encs) > 0 {
		db.adopted = make(map[string]store.Enc, len(f.Encs))
		for _, se := range f.Encs {
			for _, in := range se.Inputs {
				s, ok := db.stores[in.Name]
				if !ok || s.State().Ver != in.Ver {
					return nil, fmt.Errorf("fdb: open snapshot: enc %q input %s@%d does not match its stored relation",
						se.Key, in.Name, in.Ver)
				}
			}
			db.adopted[se.Key] = se
		}
	}
	db.backing = f
	return db, nil
}

// adoptSaved returns a snapshot-carried encoding for this statement's
// holder at this data version, or nil to fall back to a build. Adoption
// demands exact agreement — holder key, input names and versions, and the
// tree's store.TreeKey (pre-order shape, Rels, Deps and markers) — because
// the arena is wired to the stored tree's pre-order; any mismatch means the
// plan must build normally. A pinned statement adopts too, when its
// snapshot's versions are the file's. The returned enc is a view: its arena
// stays in the snapshot file.
func (st *Stmt) adoptSaved(d *stmtData) *frep.Enc {
	se, ok := st.db.adopted[st.src.key]
	if !ok || len(se.Inputs) != len(st.src.names) {
		return nil
	}
	for i, name := range st.src.names {
		if se.Inputs[i].Name != name || se.Inputs[i].Ver != d.vers[i] {
			return nil
		}
	}
	if store.TreeKey(se.Enc.Tree) != store.TreeKey(st.tree) {
		return nil
	}
	return se.Enc.ReTree(st.tree.Clone())
}
