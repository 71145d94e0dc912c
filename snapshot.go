package fdb

import (
	"errors"
	"fmt"
	"sync"
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
// Statements read the snapshot through Bind; the snapshot owns their data
// holders, one per srcKey, until Close. Close releases the pin: statements
// bound to the snapshot fail with an error after Close; results already
// executed stay valid (they own their representation).
type Snapshot struct {
	db     *DB
	ver    uint64
	states map[string]*delta.State
	closed atomic.Bool

	mu   sync.Mutex
	srcs map[string]*stmtSrc // bound statements' holders by srcKey; nil once closed
}

// Snapshot pins the current version of every relation and returns the
// consistent view. The capture runs under the read lock, so no write commits
// halfway through it.
func (db *DB) Snapshot() *Snapshot {
	db.mu.RLock()
	s := &Snapshot{db: db, ver: db.ver, states: make(map[string]*delta.State, len(db.stores)), srcs: map[string]*stmtSrc{}}
	for name, st := range db.stores {
		s.states[name] = st.State()
	}
	db.mu.RUnlock()
	db.snaps.Add(1)
	return s
}

// Version returns the database write version the snapshot pins.
func (s *Snapshot) Version() uint64 { return s.ver }

// Close releases the snapshot and its data holders. Idempotent; only the
// first call decrements the database's open-snapshot count.
func (s *Snapshot) Close() {
	s.mu.Lock()
	s.srcs = nil
	s.mu.Unlock()
	if s.closed.CompareAndSwap(false, true) {
		s.db.snaps.Add(-1)
	}
}

func (s *Snapshot) isClosed() bool { return s.closed.Load() }

// holder returns the snapshot's data holder for key, registering one over
// the named inputs on first use, or nil once the snapshot is closed.
func (s *Snapshot) holder(key string, names []string) *stmtSrc {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srcs == nil {
		return nil
	}
	src := s.srcs[key]
	if src == nil {
		src = s.db.srcs.mint(key, names)
		s.srcs[key] = src
	}
	return src
}

// Bind is the one way to run a statement against the snapshot: it pins a
// statement from DB.Prepare to the snapshot, sharing its compiled plan and
// the snapshot's data holder for its srcKey, so the first Exec of any
// statement bound with that key loads the inputs at the pinned versions and
// every later one reuses them. Since Prepare resolves through the plan
// cache, any number of snapshots and connections running one query shape
// share one plan. The bound statement reads the pinned data forever (never
// refreshing) and errors after Close; the receiver statement is unaffected.
// Bind fails on a closed snapshot and on a statement reading a relation
// created after it.
func (s *Snapshot) Bind(st *Stmt) (*Stmt, error) {
	if st == nil {
		return nil, fmt.Errorf("fdb: Bind of a nil statement")
	}
	if st.db != s.db {
		return nil, fmt.Errorf("fdb: Bind of a statement from a different DB instance")
	}
	return st.pin(s)
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
