package bench

import (
	"math/rand"
	"testing"
)

// TestExperiment8Parity runs a small Experiment 8 sweep; the experiment
// itself cross-checks every worker count's build, aggregation and
// enumeration against the serial leg, so a pass here is a parity proof.
func TestExperiment8Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := Exp8Config{Scale: 1, Workers: []int{1, 2, 4}, MaxEnum: 1_000_000}
	rows, err := Experiment8Retailer(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Workers) {
		t.Fatalf("retailer sweep has %d rows, want %d", len(rows), len(cfg.Workers))
	}
	for _, r := range rows {
		if r.Tuples != rows[0].Tuples || r.RepSize != rows[0].RepSize {
			t.Fatalf("worker count %d changed the result: %d tuples / %d size, want %d / %d",
				r.Workers, r.Tuples, r.RepSize, rows[0].Tuples, rows[0].RepSize)
		}
	}
	crows, err := Experiment8Chain(rng, Exp8Config{Scale: 4, Workers: []int{1, 3}, MaxEnum: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(crows) != 2 {
		t.Fatalf("chain sweep has %d rows, want 2", len(crows))
	}
}
