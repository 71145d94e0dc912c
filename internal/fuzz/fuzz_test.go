package fuzz

import (
	"runtime"
	"testing"
)

// parallelisms returns the worker counts every case runs at: the serial
// path and P=GOMAXPROCS, plus a forced multi-worker leg when GOMAXPROCS is
// too small to exercise the parallel code at all.
func parallelisms() []int {
	ps := []int{1, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) < 4 {
		ps = append(ps, 4)
	}
	return ps
}

// TestDifferential runs the differential harness over a block of seeds —
// at least 1500 sequence-compared queries per full package run (750 seeds ×
// ≥2 parallelism legs), covering OrderBy/Limit/Offset/Distinct alongside
// joins, selections, projections and aggregates. Failures reproduce with
// fuzz.Check(seed, p).
func TestDifferential(t *testing.T) {
	seeds := 750
	if testing.Short() {
		seeds = 60
	}
	ps := parallelisms()
	queries := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, p := range ps {
			if err := Check(seed, p); err != nil {
				t.Fatal(err)
			}
			queries++
		}
	}
	t.Logf("fuzz: %d queries checked (%d seeds × %d parallelism legs)", queries, seeds, len(ps))
}

// TestDifferentialTrees is the greedy-vs-exhaustive f-tree differential,
// below the query API: for every seed both searches' trees are built with
// fbuild and each must represent the flat oracle's relation — ≥1500
// oracle-compared builds per full package run (750 seeds × 2 trees), zero
// divergence allowed. Failures reproduce with fuzz.CheckTrees(seed).
func TestDifferentialTrees(t *testing.T) {
	seeds := 750
	if testing.Short() {
		seeds = 60
	}
	builds := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		n, err := CheckTrees(seed)
		if err != nil {
			t.Fatal(err)
		}
		builds += n
	}
	if !testing.Short() && builds < 1500 {
		t.Fatalf("tree differential too small: %d oracle-compared builds < 1500", builds)
	}
	t.Logf("fuzz: %d f-tree builds checked (%d seeds × 2 trees)", builds, seeds)
}

// TestCaseDeterminism: the same seed derives the same case — the property
// the printed-seed reproduction workflow relies on.
func TestCaseDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, err := NewCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.rels) != len(b.rels) || len(a.eqs) != len(b.eqs) ||
			len(a.sels) != len(b.sels) || len(a.aggs) != len(b.aggs) {
			t.Fatalf("seed %d: case shape differs between derivations", seed)
		}
		for i := range a.rels {
			if !a.rels[i].Equal(b.rels[i]) {
				t.Fatalf("seed %d: relation %s differs between derivations", seed, a.rels[i].Name)
			}
		}
	}
}

// TestMutationDifferential runs the mutation harness over a block of seeds:
// every seed applies 10-17 Insert/Delete/Upsert/Compact steps through the
// public write API and re-checks the live query plus every pinned snapshot
// against the flat oracle after each step — ≥1500 sequence-compared queries
// per full package run across ≥2 parallelism legs, zero divergence allowed.
// Failures reproduce with fuzz.CheckMutations(seed, p).
func TestMutationDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	ps := parallelisms()
	queries := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, p := range ps {
			n, err := CheckMutations(seed, p)
			queries += n
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if !testing.Short() && queries < 1500 {
		t.Fatalf("mutation workload too small: %d oracle-compared queries < 1500", queries)
	}
	t.Logf("fuzz: %d mutation-workload queries checked (%d seeds × %d parallelism legs)", queries, seeds, len(ps))
}

// FuzzDifferential is the `go test -fuzz` entry point: the fuzzer mutates
// the seed (and a parallelism byte), the corpus seeds come from the block
// the deterministic test covers. Each input is exercised both as a static
// workload (Check) and as a mutation workload (CheckMutations) so corpus
// entries cover the write path too.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(2), uint8(2))
	f.Add(int64(42), uint8(4))
	f.Add(int64(500), uint8(3))
	// Mutation-workload corpus: seeds whose schedules hit every write verb,
	// compaction under open snapshots, and the aggregate query shape.
	f.Add(int64(7), uint8(2))
	f.Add(int64(23), uint8(4))
	f.Add(int64(1009), uint8(1))
	// Set-operation corpus: one seed per operator (union, union all, except,
	// intersect), one combining a set operation with a scrambled string
	// dictionary, and one with string range selections (decoded-order cuts).
	f.Add(int64(22), uint8(1))
	f.Add(int64(17), uint8(2))
	f.Add(int64(15), uint8(1))
	f.Add(int64(32), uint8(3))
	f.Add(int64(58), uint8(1))   // regression: union-all bag under ordered retrieval
	f.Add(int64(2815), uint8(0)) // regression: Distinct over a union-all bag on a branching tree
	f.Add(int64(319), uint8(1))
	f.Add(int64(2), uint8(2))
	f.Add(int64(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, p uint8) {
		workers := int(p%8) + 1
		if err := Check(seed, workers); err != nil {
			t.Fatal(err)
		}
		if _, err := CheckMutations(seed, workers); err != nil {
			t.Fatal(err)
		}
	})
}
