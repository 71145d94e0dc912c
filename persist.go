package fdb

import (
	"fmt"
	"sort"

	"repro/internal/delta"
	"repro/internal/frep"
	"repro/internal/relation"
	"repro/internal/store"
)

// SaveSnapshot writes the database to path in the zero-copy snapshot format
// (internal/store): the dictionary's code table, every relation's live
// tuples at one consistent version cut, and every plan-cache entry whose
// memoised encoded representation reflects exactly that cut — so a database
// reopened from the file serves those plans' first queries without any
// build. The write is atomic (temp file + rename) and the file records the
// global write version and each relation's delta-store version, which
// OpenSnapshotFile restores verbatim.
func (db *DB) SaveSnapshot(path string) error {
	db.mu.RLock()
	ver := db.ver
	ord := append([]string(nil), db.ord...)
	states := make(map[string]*delta.State, len(db.stores))
	for name, s := range db.stores {
		states[name] = s.State()
	}
	db.mu.RUnlock()

	set := &store.Set{Ver: ver, Dict: db.dict.Snapshot()}
	for _, name := range ord {
		st := states[name]
		live := st.Live()
		// Private slice header over the immutable live tuples: the writer
		// only reads, and the version chain is never mutated in place.
		rel := relation.New(live.Name, live.Schema)
		rel.Tuples = live.Tuples[:len(live.Tuples):len(live.Tuples)]
		set.Rels = append(set.Rels, store.Relation{Ver: st.Ver, Rel: rel})
	}
	entries := db.cache.entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	for _, ce := range entries {
		if se, ok := persistableEnc(ce.key, ce.stmt, states); ok {
			set.Encs = append(set.Encs, se)
		}
	}
	return store.Write(path, set)
}

// persistableEnc decides whether a cached statement's memoised encoding can
// ride along in the snapshot: the statement must memoise one and be
// unpinned, its data loaded and the encoding built, and every input version
// equal to the version the snapshot is cutting — otherwise the enc describes
// data the file does not contain.
func persistableEnc(key string, st *Stmt, states map[string]*delta.State) (store.Enc, bool) {
	if st == nil || key == "" || !st.memoises() || st.snap != nil { // nil: an f-plan entry
		return store.Enc{}, false
	}
	d := st.src.data.Load()
	if d == nil {
		return store.Enc{}, false // prepared, never executed
	}
	d.mu.Lock()
	enc := d.enc
	d.mu.Unlock()
	if enc == nil {
		return store.Enc{}, false
	}
	inputs := make([]store.Input, len(st.inputs))
	for i, in := range st.inputs {
		s, ok := states[in.store.Name]
		if !ok || s.Ver != d.vers[i] {
			return store.Enc{}, false
		}
		inputs[i] = store.Input{Name: in.store.Name, Ver: d.vers[i]}
	}
	return store.Enc{Fingerprint: key, Inputs: inputs, Enc: enc}, true
}

// OpenSnapshotFile opens a database from a snapshot file written by
// SaveSnapshot. The file is memory-mapped when the platform allows (read
// into the heap otherwise): relation tuples and any snapshot-carried
// encodings are zero-copy views into the mapping, so opening costs
// validation — header, checksums, structural invariants — instead of a
// parse and build, and a carried encoding serves its plan's first query
// with no build at all. The mapping stays referenced for the lifetime of
// the returned database; the database is fully writable — the first
// mutation simply layers delta batches over the mapped base like any other
// bulk-loaded relation.
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
// file's version bookkeeping before adopting anything.
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
		db.stores[sr.Rel.Name] = delta.FromRelation(sr.Rel, sr.Ver)
		db.ord = append(db.ord, sr.Rel.Name)
	}
	db.ver = f.Ver
	if len(f.Encs) > 0 {
		db.adopted = make(map[string]*adoptedEnc, len(f.Encs))
		for _, se := range f.Encs {
			for _, in := range se.Inputs {
				s, ok := db.stores[in.Name]
				if !ok || s.State().Ver != in.Ver {
					return nil, fmt.Errorf("fdb: open snapshot: enc %q input %s@%d does not match its stored relation",
						se.Fingerprint, in.Name, in.Ver)
				}
			}
			db.adopted[se.Fingerprint] = &adoptedEnc{inputs: se.Inputs, enc: se.Enc}
		}
	}
	db.backing = f
	return db, nil
}

// adoptSaved returns a snapshot-carried encoding for this statement at this
// data version, or nil to fall back to a build. Adoption demands exact
// agreement — fingerprint, input names and versions, and the tree's
// store.TreeKey (pre-order shape, Rels, Deps and markers) — because the arena
// is wired to the stored tree's pre-order; any mismatch means the plan must
// build normally. The returned enc is a view: its arena stays in the snapshot
// file.
func (st *Stmt) adoptSaved(d *stmtData) *frep.Enc {
	if st.fp == "" || st.snap != nil || !st.memoises() {
		return nil
	}
	ae := st.db.adopted[st.fp]
	if ae == nil || len(ae.inputs) != len(st.inputs) || len(d.vers) != len(st.inputs) {
		return nil
	}
	for i := range st.inputs {
		if ae.inputs[i].Name != st.inputs[i].store.Name || ae.inputs[i].Ver != d.vers[i] {
			return nil
		}
	}
	if store.TreeKey(ae.enc.Tree) != store.TreeKey(st.tree) {
		return nil
	}
	return ae.enc.ReTree(st.tree.Clone())
}
