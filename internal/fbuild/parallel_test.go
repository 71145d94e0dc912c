package fbuild

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/relation"
)

// TestBuildEncParallelMatchesSerial: the packed parallel build validates
// and is structurally equal (column for column) to the one-worker build, across
// random queries, worker counts and value skews.
func TestBuildEncParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		dist := gen.Uniform
		if trial%2 == 1 {
			dist = gen.Zipf
		}
		r := 1 + rng.Intn(3)
		a := r + rng.Intn(4)
		k := rng.Intn(min(a-1, 3) + 1)
		q, err := gen.RandomQuery(rng, r, a, 1+rng.Intn(60), k, dist, 6)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
		if err != nil {
			continue
		}
		serial, err := BuildEnc(cloneRels(q.Relations), tr.Clone())
		if err != nil {
			t.Fatalf("trial %d: serial: %v", trial, err)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			par, err := BuildEncParallel(cloneRels(q.Relations), tr.Clone(), workers)
			if err != nil {
				t.Fatalf("trial %d (p=%d): %v", trial, workers, err)
			}
			if err := par.Validate(); err != nil {
				t.Fatalf("trial %d (p=%d): packed enc invalid: %v\ntree:\n%s", trial, workers, err, tr)
			}
			if !par.Equal(serial) {
				t.Fatalf("trial %d (p=%d): parallel build differs from serial\ntree:\n%s", trial, workers, tr)
			}
		}
	}
}

// TestBuildEncParallelEmpty: an empty join comes back as the canonical
// empty representation from the parallel path too.
func TestBuildEncParallelEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := gen.ChainQuery(rng, 3, 40, 1000) // sparse: joins almost surely empty
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := BuildEnc(cloneRels(q.Relations), tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildEncParallel(cloneRels(q.Relations), tr.Clone(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.IsEmpty() != serial.IsEmpty() {
		t.Fatalf("parallel empty=%v, serial empty=%v", par.IsEmpty(), serial.IsEmpty())
	}
	if !par.Equal(serial) {
		t.Fatal("parallel and serial empty representations differ")
	}
}

// TestBuildEncParallelCancel: a cancelled context aborts the parallel build
// with the context's error.
func TestBuildEncParallelCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := bigRetailerLike(rng)
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildEncParallelContext(ctx, cloneRels(q.Relations), tr, 4); err == nil {
		t.Fatal("cancelled parallel build did not fail")
	}
}

// pollCtx is a context whose Err turns non-nil from its failAt-th poll on.
type pollCtx struct {
	context.Context
	polls, failAt int
}

var errPolled = errors.New("cancelled at a poll")

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.failAt {
		return errPolled
	}
	return nil
}

// TestGatherPollsContext: a one-attribute relation is one gathered leaf
// union, which must still poll the context every checkTick values.
// BuildEncParallelContext polls once before it builds, so a context that
// fails on its second poll fails the build only if the gather polls.
func TestGatherPollsContext(t *testing.T) {
	r := relation.New("R", relation.Schema{"a"})
	for v := range relation.Value(4 * checkTick) {
		r.Append(v)
	}
	tr := ftree.New([]*ftree.Node{ftree.NewNode("a")}, []relation.AttrSet{relation.NewAttrSet("a")})
	ctx := &pollCtx{Context: context.Background(), failAt: 2}
	if _, err := BuildEncParallelContext(ctx, []*relation.Relation{r}, tr, 1); err != errPolled {
		t.Fatalf("build of %d gathered values: err %v after %d polls, want the context's error", 4*checkTick, err, ctx.polls)
	}
}

// TestBuildEncParallelOversubscribed: worker counts far beyond GOMAXPROCS
// still produce the right result (goroutines merely time-share).
func TestBuildEncParallelOversubscribed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := bigRetailerLike(rng)
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := BuildEnc(cloneRels(q.Relations), tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildEncParallel(cloneRels(q.Relations), tr.Clone(), 64*runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(serial) {
		t.Fatal("oversubscribed parallel build differs from serial")
	}
}

// bigRetailerLike is a three-relation many-to-many join big enough that the
// parallel build actually splits it into morsels.
func bigRetailerLike(rng *rand.Rand) *core.Query {
	orders := relation.New("Orders", relation.Schema{"o_oid", "o_item"})
	for i := 0; i < 2000; i++ {
		orders.Append(relation.Value(i+1), relation.Value(rng.Intn(50)+1))
	}
	orders.Dedup()
	stock := relation.New("Stock", relation.Schema{"s_location", "s_item"})
	for i := 0; i < 800; i++ {
		stock.Append(relation.Value(rng.Intn(40)+1), relation.Value(rng.Intn(50)+1))
	}
	stock.Dedup()
	disp := relation.New("Disp", relation.Schema{"d_dispatcher", "d_location"})
	for i := 0; i < 300; i++ {
		disp.Append(relation.Value(rng.Intn(120)+1), relation.Value(rng.Intn(40)+1))
	}
	disp.Dedup()
	return &core.Query{
		Relations: []*relation.Relation{orders, stock, disp},
		Equalities: []core.Equality{
			{A: "o_item", B: "s_item"},
			{A: "s_location", B: "d_location"},
		},
	}
}
