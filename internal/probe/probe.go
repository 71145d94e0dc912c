// Package probe lets the repository's test harnesses outside package fdb
// observe engine internals that have no public API. Package fdb sets the
// hooks when it is initialised; nothing in the engine reads them.
package probe

// SharesData reports whether two *fdb.Stmt values execute over one data
// holder: the same refreshed inputs and the same memoised encoding.
var SharesData func(a, b any) bool
