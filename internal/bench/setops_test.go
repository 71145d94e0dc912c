package bench

import (
	"math/rand"
	"testing"
)

// TestExperiment14Parity runs the set-algebra experiment at a small scale:
// the embedded parity check (factorised merge vs flat mirror, per operator)
// is the assertion.
func TestExperiment14Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows, err := Experiment14Retailer(rng, Exp14Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byOp := map[string]Exp14Row{}
	for _, r := range rows {
		if r.Tuples < 0 || r.RepSize <= 0 {
			t.Errorf("%s: implausible sizes: %+v", r.Op, r)
		}
		byOp[r.Op] = r
	}
	// The legs were built to overlap (and are sets), so the standard
	// cardinality identities must hold exactly.
	a, b := rows[0].TuplesA, rows[0].TuplesB
	if got := byOp["union_all"].Tuples; got != a+b {
		t.Errorf("|A ⊎ B| = %d, want |A| + |B| = %d", got, a+b)
	}
	if byOp["intersect"].Tuples == 0 {
		t.Error("intersect is empty: the legs were built to overlap")
	}
	if got := byOp["union"].Tuples; got != byOp["except"].Tuples+b {
		t.Errorf("|A ∪ B| = %d, want |A − B| + |B| = %d", got, byOp["except"].Tuples+b)
	}
	if got := byOp["intersect"].Tuples; got != a-byOp["except"].Tuples {
		t.Errorf("|A ∩ B| = %d, want |A| − |A − B| = %d", got, a-byOp["except"].Tuples)
	}
}
