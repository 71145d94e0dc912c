package fuzz

import (
	"testing"
)

// TestDifferentialPersisted puts snapshot-opened databases under the same
// differential bar as live ones: each seed's database is saved to a
// zero-copy snapshot file, reopened (mmap when the platform allows), and
// every query variant of the case — joins, selections, projections,
// aggregates, OrderBy/Limit/Offset/Distinct — is sequence-compared against
// the flat oracle over the reopened database. Failures reproduce with
// fuzz.CheckPersisted(seed, dir).
func TestDifferentialPersisted(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 25
	}
	dir := t.TempDir()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if err := CheckPersisted(seed, dir); err != nil {
			t.Fatal(err)
		}
	}
}
