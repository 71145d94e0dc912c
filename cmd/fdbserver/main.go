// Command fdbserver serves a factorised database over the wire protocol:
// prepared statements against a shared plan cache, pipelined execution,
// per-connection snapshot pinning, batched writes, admission control and a
// STATS verb. SIGINT/SIGTERM drains gracefully: in-flight requests finish,
// new ones are refused with a draining error, then connections close.
//
// The served corpus comes from -data (a zero-copy snapshot file written by
// db.SaveSnapshot / the fdb CLI — opened by mmap, so restarts skip the
// parse+build entirely) or from -retailer-scale (the deterministic seeded
// workload); -save-snapshot writes the seeded corpus back out for the next
// restart.
//
//	fdbserver -addr 127.0.0.1:7744 -retailer-scale 4
//	fdbserver -addr 127.0.0.1:7744 -retailer-scale 0 -data retailer.fdb
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	fdb "repro"
	"repro/internal/wire"
)

// warmReadPool executes the parameter-free queries of the retailer read
// pool once, so their plans land in the shared cache with memoised
// encodings before a snapshot is cut — a -data restart then serves those
// queries from the mapped arenas without any build.
func warmReadPool(db *fdb.DB) error {
	for _, q := range wire.RetailerQueries() {
		clauses, err := q.Spec.Clauses()
		if err != nil {
			return err
		}
		st, err := db.PrepareCached(clauses...)
		if err != nil {
			return err
		}
		if len(st.Params()) > 0 {
			continue // parameterised plans cannot ride the snapshot
		}
		if _, err := wire.ExecReply(context.Background(), st, nil, 1, 0); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7744", "listen address (port 0 picks a free port)")
	scale := flag.Int("retailer-scale", 1, "seed the deterministic retailer workload at this scale (0: start empty)")
	seed := flag.Int64("retailer-seed", 42, "seed for the retailer workload")
	maxConns := flag.Int("max-conns", 256, "connection limit")
	maxInflight := flag.Int("max-inflight", 64, "concurrently executing requests")
	queue := flag.Int("queue", 256, "bounded admission queue depth")
	reqTimeout := flag.Duration("req-timeout", 10*time.Second, "per-request execution budget")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before force-close")
	statsEvery := flag.Duration("stats-every", 0, "print server stats at this interval (0: never)")
	dataPath := flag.String("data", "", "serve a snapshot file (mmap zero-copy open) instead of seeding")
	savePath := flag.String("save-snapshot", "", "write the loaded corpus to a snapshot file before serving")
	flag.Parse()

	var db *fdb.DB
	if *dataPath != "" {
		var err error
		if db, err = fdb.OpenSnapshotFile(*dataPath); err != nil {
			fmt.Fprintf(os.Stderr, "fdbserver: open snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("fdbserver: opened snapshot %s (version=%d, relations=%d)\n",
			*dataPath, db.Version(), len(db.Relations()))
	} else {
		db = fdb.New()
	}
	if *scale > 0 {
		if *dataPath != "" {
			fmt.Fprintf(os.Stderr, "fdbserver: -data and -retailer-scale > 0 are mutually exclusive (pass -retailer-scale 0 with -data)\n")
			os.Exit(1)
		}
		if err := wire.SeedRetailer(db, *seed, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "fdbserver: seed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("fdbserver: seeded retailer workload (seed=%d scale=%d, version=%d)\n", *seed, *scale, db.Version())
	}
	if *savePath != "" {
		// Warm the plan cache with the read pool first, so the snapshot
		// carries pre-built encodings and a -data restart serves its first
		// queries without any build.
		if err := warmReadPool(db); err != nil {
			fmt.Fprintf(os.Stderr, "fdbserver: warm for snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := db.SaveSnapshot(*savePath); err != nil {
			fmt.Fprintf(os.Stderr, "fdbserver: save snapshot: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("fdbserver: saved snapshot %s (version=%d)\n", *savePath, db.Version())
	}

	srv := wire.NewServer(db, wire.Options{
		MaxConns:    *maxConns,
		MaxInflight: *maxInflight,
		Queue:       *queue,
		ReqTimeout:  *reqTimeout,
	})
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdbserver: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("fdbserver: serving on %s\n", bound)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := srv.Stats()
				fmt.Printf("fdbserver: conns=%d qps=%.0f reqs=%d errs=%d read_p99=%.0fus cache_hit=%.2f snaps=%d\n",
					st.Conns, st.QPS10, st.Requests, st.Errors, st.ReadP99us, st.CacheHitRate, st.OpenSnapshots)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("fdbserver: %s received, draining (budget %s)\n", got, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "fdbserver: drain budget exceeded, connections force-closed: %v\n", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Printf("fdbserver: drained cleanly (%d requests served, %d errors)\n", st.Requests, st.Errors)
}
