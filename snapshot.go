package fdb

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/delta"
)

// errSnapshotClosed is returned when a snapshot-bound statement runs after
// the snapshot was closed — reading a released version is a caller bug, and
// it fails loudly rather than silently serving whatever is current.
var errSnapshotClosed = errors.New("fdb: snapshot closed: statement reads a released version")

// Snapshot is a consistent read-only view of the database at one write
// version. It pins the immutable state of every relation as of the pin
// (including tuple storage and any arena a pinned statement decodes from),
// so queries against it are repeatable bit-for-bit regardless of concurrent
// Insert/Delete/Upsert or Compact calls. Snapshots are cheap — a pointer
// per relation, no copying — and safe for concurrent use.
//
// Close releases the pin. Statements prepared from the snapshot fail with
// an error after Close; results already executed stay valid (they own their
// representation).
type Snapshot struct {
	db     *DB
	ver    uint64
	states map[string]*delta.State
	closed atomic.Bool
}

// Snapshot pins the current version of every relation and returns the
// consistent view. The capture runs under the read lock, so no write commits
// halfway through it.
func (db *DB) Snapshot() *Snapshot {
	db.mu.RLock()
	s := &Snapshot{db: db, ver: db.ver, states: make(map[string]*delta.State, len(db.stores))}
	for name, st := range db.stores {
		s.states[name] = st.State()
	}
	db.mu.RUnlock()
	db.snaps.Add(1)
	return s
}

// Version returns the database write version the snapshot pins.
func (s *Snapshot) Version() uint64 { return s.ver }

// Close releases the snapshot. Idempotent; only the first call decrements
// the database's open-snapshot count.
func (s *Snapshot) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.db.snaps.Add(-1)
	}
}

func (s *Snapshot) isClosed() bool { return s.closed.Load() }

// Prepare compiles a statement pinned to the snapshot's versions: every
// Exec reads the pinned data, never refreshing, and errors once the
// snapshot is closed. The plan comes from the database plan cache, so any
// number of snapshots preparing one query shape share one f-tree search.
func (s *Snapshot) Prepare(clauses ...Clause) (*Stmt, error) {
	sp, err := compileSpec(modeQuery, clauses)
	if err != nil {
		return nil, err
	}
	return s.pinned(sp)
}

// pinned resolves the spec through the database plan cache and pins the
// shared plan to the snapshot.
func (s *Snapshot) pinned(sp *spec) (*Stmt, error) {
	st, err := s.db.cachedStmt(sp)
	if err != nil {
		return nil, err
	}
	return st.pin(s)
}

// Bind pins an already-compiled live statement to the snapshot, sharing
// its compiled plan; the bound statement's first Exec loads its inputs at
// the pinned versions. Together with DB.PrepareCached this gives the
// many-connection server one plan per query shape across all live and
// snapshot-pinned executions. The bound statement reads the pinned data
// forever (never refreshing) and errors after Close; the receiver statement
// is unaffected.
func (s *Snapshot) Bind(st *Stmt) (*Stmt, error) {
	if st == nil {
		return nil, fmt.Errorf("fdb: Bind of a nil statement")
	}
	if st.db != s.db {
		return nil, fmt.Errorf("fdb: Bind of a statement from a different DB instance")
	}
	return st.pin(s)
}

// Query runs a select-project-join query against the snapshot.
func (s *Snapshot) Query(clauses ...Clause) (*Result, error) {
	sp, err := adhocSpec(clauses, false)
	if err != nil {
		return nil, err
	}
	st, err := s.pinned(sp)
	if err != nil {
		return nil, err
	}
	return st.Exec()
}

// QueryAgg runs an aggregation query against the snapshot.
func (s *Snapshot) QueryAgg(clauses ...Clause) (*AggResult, error) {
	sp, err := adhocSpec(clauses, true)
	if err != nil {
		return nil, err
	}
	st, err := s.pinned(sp)
	if err != nil {
		return nil, err
	}
	return st.ExecAgg()
}

// Relations lists the relation names visible in the snapshot, in creation
// order at pin time.
func (s *Snapshot) Relations() []string {
	out := make([]string, 0, len(s.states))
	s.db.mu.RLock()
	for _, name := range s.db.ord {
		if _, ok := s.states[name]; ok {
			out = append(out, name)
		}
	}
	s.db.mu.RUnlock()
	return out
}
