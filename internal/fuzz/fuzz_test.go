package fuzz

import (
	"testing"
)

// TestDifferential runs the differential harness over a block of seeds —
// 1500 sequence-compared queries per full package run, covering
// OrderBy/Limit/Offset/Distinct alongside joins, selections, projections and
// aggregates. Failures reproduce with fuzz.Check(seed).
func TestDifferential(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 150
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := Check(seed); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("fuzz: %d queries checked", seeds)
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
// public write API and re-checks the live query, its same-tree twin and
// every pinned snapshot against the flat oracle after each step — ≥1500
// sequence-compared queries per full package run, zero divergence allowed.
// Failures reproduce with fuzz.CheckMutations(seed).
func TestMutationDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	queries := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		n, err := CheckMutations(seed)
		queries += n
		if err != nil {
			t.Fatal(err)
		}
	}
	if !testing.Short() && queries < 1500 {
		t.Fatalf("mutation workload too small: %d oracle-compared queries < 1500", queries)
	}
	t.Logf("fuzz: %d mutation-workload queries checked (%d seeds)", queries, seeds)
}

// FuzzDifferential is the `go test -fuzz` entry point: the fuzzer mutates
// the seed, the corpus seeds come from the block the deterministic test
// covers. Each input is exercised both as a static workload (Check) and as a
// mutation workload (CheckMutations) so corpus entries cover the write path
// too.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(2))
	f.Add(int64(42))
	f.Add(int64(500))
	// Mutation-workload corpus: seeds whose schedules hit every write verb,
	// compaction under open snapshots, and the aggregate query shape.
	f.Add(int64(7))
	f.Add(int64(23))
	f.Add(int64(1009))
	// Set-operation corpus: one seed per operator (union, union all, except,
	// intersect), one combining a set operation with a scrambled string
	// dictionary, and one with string range selections (decoded-order cuts).
	f.Add(int64(22))
	f.Add(int64(17))
	f.Add(int64(15))
	f.Add(int64(32))
	f.Add(int64(58))   // regression: union-all bag under ordered retrieval
	f.Add(int64(2815)) // regression: Distinct over a union-all bag on a branching tree
	f.Add(int64(1655)) // regression: an equality over a union-all bag kept too few duplicates
	f.Add(int64(1923)) // regression: a projection over a union-all bag collapsed its operands
	f.Add(int64(319))
	f.Add(int64(2))
	f.Add(int64(4))
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := Check(seed); err != nil {
			t.Fatal(err)
		}
		if _, err := CheckMutations(seed); err != nil {
			t.Fatal(err)
		}
	})
}
