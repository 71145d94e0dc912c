package fdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// retailerDB builds a retailer-style workload big enough for the parallel
// build to split it into morsels.
func retailerDB(t *testing.T, seed int64) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := New()
	db.MustCreate("Orders", "oid", "item")
	for i := 0; i < 1500; i++ {
		db.MustInsert("Orders", i, rng.Intn(50))
	}
	db.MustCreate("Stock", "location", "item")
	for i := 0; i < 600; i++ {
		db.MustInsert("Stock", rng.Intn(40), rng.Intn(50))
	}
	db.MustCreate("Disp", "dispatcher", "location")
	for i := 0; i < 250; i++ {
		db.MustInsert("Disp", i%120, rng.Intn(40))
	}
	return db
}

var retailerJoin = []Clause{
	From("Orders", "Stock", "Disp"),
	Eq("Orders.item", "Stock.item"),
	Eq("Stock.location", "Disp.location"),
}

// TestParallelismMatchesSerial: every worker count produces the same
// result — counts, tuples and aggregates — as the serial path, through the
// public Query/QueryAgg surface.
func TestParallelismMatchesSerial(t *testing.T) {
	db := retailerDB(t, 1)
	db.SetParallelism(1)
	serial, err := db.Query(retailerJoin...)
	if err != nil {
		t.Fatal(err)
	}
	aggClauses := append(retailerJoin[:3:3],
		GroupBy("Stock.location"), Agg(Count, ""), Agg(Sum, "Orders.oid"), Agg(CountDistinct, "Orders.item"))
	serialAgg, err := db.QueryAgg(aggClauses...)
	if err != nil {
		t.Fatal(err)
	}
	// The plan cache would serve the encoding memoised at P=1: uncached
	// statements compile and build at the parallelism in force.
	for _, p := range []int{2, 4, 8} {
		db.SetParallelism(p)
		st, err := db.Prepare(retailerJoin...)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		res, err := st.Exec()
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Count() != serial.Count() || res.Size() != serial.Size() {
			t.Fatalf("p=%d: count/size %d/%d, serial %d/%d", p, res.Count(), res.Size(), serial.Count(), serial.Size())
		}
		if !res.Enc().Equal(serial.Enc()) {
			t.Fatalf("p=%d: parallel result not structurally equal to serial", p)
		}
		aggSt, err := db.Prepare(aggClauses...)
		if err != nil {
			t.Fatalf("p=%d: agg: %v", p, err)
		}
		agg, err := aggSt.ExecAgg()
		if err != nil {
			t.Fatalf("p=%d: agg: %v", p, err)
		}
		if !reflect.DeepEqual(agg.Rows(0), serialAgg.Rows(0)) {
			t.Fatalf("p=%d: parallel aggregation differs from serial", p)
		}
	}
}

// TestConcurrentExecWhileSetParallelismFlips is the concurrency regression
// test: many goroutines run Exec and ExecAgg on one DB while another
// goroutine keeps changing the database-wide parallelism. Under -race this
// proves the setting is safely published; the results must be stable
// regardless of which parallelism each execution observed.
func TestConcurrentExecWhileSetParallelismFlips(t *testing.T) {
	db := retailerDB(t, 4)
	stmt, err := db.Prepare(retailerJoin...)
	if err != nil {
		t.Fatal(err)
	}
	aggStmt, err := db.Prepare(append(retailerJoin[:3:3],
		GroupBy("Stock.location"), Agg(Count, ""), Agg(Sum, "Orders.oid"))...)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	refAgg, err := aggStmt.ExecAgg()
	if err != nil {
		t.Fatal(err)
	}
	refRows := refAgg.Rows(0)

	const goroutines = 8
	const iters = 6
	stop := make(chan struct{})
	var flip sync.WaitGroup
	flip.Add(1)
	go func() {
		defer flip.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.SetParallelism(1 + i%5)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := stmt.Exec()
				if err != nil {
					errs <- err
					return
				}
				if res.Count() != ref.Count() || !res.Enc().Equal(ref.Enc()) {
					errs <- fmt.Errorf("goroutine %d iter %d: result drifted from reference", g, i)
					return
				}
				agg, err := aggStmt.ExecAgg()
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(agg.Rows(0), refRows) {
					errs <- fmt.Errorf("goroutine %d iter %d: aggregate drifted from reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	flip.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
