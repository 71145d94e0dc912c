package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	fdb "repro"
	"repro/internal/wire"
)

const (
	mixRead     = "read"
	mixMixed    = "mixed"
	mixSnapshot = "snapshot"

	// writeBase is the first oid of the range reserved for the mixed
	// workload's writes; seed oids stay far below it, so the writes never
	// collide with seed data and a full cleanup restores the seed state
	// exactly (set semantics).
	writeBase = 1_000_000
	// writeStride separates the oid ranges of concurrent workers.
	writeStride = 100_000
)

type config struct {
	addr     string
	conns    []int
	mixes    []string
	duration time.Duration
	seed     int64
	scale    int
}

// cell is one sweep point's counters.
type cell struct {
	Mix         string
	Conns       int
	Ops         int64
	Errors      int64
	Checked     int64
	Divergences int64
}

// summary is the whole run.
type summary struct {
	Cells            []cell
	TotalOps         int64
	TotalErrors      int64
	TotalDivergences int64
}

// reference executes the same statements through the library API on an
// identically seeded database and renders them exactly as the server does;
// its encoded bytes are the differential oracle.
type reference struct {
	db      *fdb.DB
	queries []wire.LoadQuery
	stmts   []*fdb.Stmt
}

func newReference(seed int64, scale int) (*reference, error) {
	db := fdb.New()
	if err := wire.SeedRetailer(db, seed, scale); err != nil {
		return nil, err
	}
	r := &reference{db: db, queries: wire.RetailerQueries()}
	for _, q := range r.queries {
		clauses, err := q.Spec.Clauses()
		if err != nil {
			return nil, err
		}
		st, err := db.PrepareCached(clauses...)
		if err != nil {
			return nil, fmt.Errorf("reference prepare %s: %v", q.Name, err)
		}
		r.stmts = append(r.stmts, st)
	}
	return r, nil
}

// encoded returns the wire encoding of query qi's library-side result.
func (r *reference) encoded(qi int, args []wire.Arg) ([]byte, error) {
	return wire.ExecReply(context.Background(), r.stmts[qi], args, 0, 0)
}

// workerStats accumulates one worker's counters; merged after the join.
type workerStats struct {
	ops         int64
	errors      int64
	checked     int64
	divergences int64
}

// runLoad executes the full sweep and returns the summary. Progress and
// results go to out.
func runLoad(cfg config, out io.Writer) (*summary, error) {
	addr := cfg.addr
	if addr == "" {
		db := fdb.New()
		if err := wire.SeedRetailer(db, cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		srv := wire.NewServer(db, wire.Options{})
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		addr = bound.String()
		fmt.Fprintf(out, "fdload: started in-process server on %s\n", addr)
	}
	ref, err := newReference(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}

	sum := &summary{}
	fmt.Fprintf(out, "fdload: sweep: mixes=%v conns=%v duration=%s seed=%d scale=%d\n",
		cfg.mixes, cfg.conns, cfg.duration, cfg.seed, cfg.scale)
	cellIdx := 0
	for _, mix := range cfg.mixes {
		for _, nconns := range cfg.conns {
			c, err := runCell(addr, ref, mix, nconns, cfg, cellIdx)
			if err != nil {
				return nil, fmt.Errorf("cell %s/%d: %v", mix, nconns, err)
			}
			fmt.Fprintf(out, "fdload: mix=%-8s conns=%-3d ops=%-7d checked=%-7d divergences=%d errors=%d\n",
				c.Mix, c.Conns, c.Ops, c.Checked, c.Divergences, c.Errors)
			sum.Cells = append(sum.Cells, *c)
			sum.TotalOps += c.Ops
			sum.TotalErrors += c.Errors
			sum.TotalDivergences += c.Divergences
			cellIdx++
		}
	}
	return sum, nil
}

// runCell runs one (mix, conns) sweep point.
func runCell(addr string, ref *reference, mix string, nconns int, cfg config, cellIdx int) (*cell, error) {
	clients := make([]*wire.Client, nconns)
	for i := range clients {
		cl, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[i] = cl
	}

	stats := make([]workerStats, nconns)
	var wg sync.WaitGroup
	for w := 0; w < nconns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(cellIdx)*1009 + int64(w)*13))
			runWorker(clients[w], ref, mix, cfg, rng, cellIdx*1000+w, &stats[w])
		}(w)
	}
	wg.Wait()

	c := &cell{Mix: mix, Conns: nconns}
	for i := range stats {
		s := &stats[i]
		c.Ops += s.ops
		c.Errors += s.errors
		c.Checked += s.checked
		c.Divergences += s.divergences
	}

	if mix == mixMixed {
		// The mixed cell must have restored the seed state; verify it by
		// comparing the parameter-free read pool against the reference.
		cl := clients[0]
		for qi, q := range ref.queries {
			rs, err := cl.Prepare(&ref.queries[qi].Spec)
			if err != nil {
				return nil, fmt.Errorf("post-cell prepare: %v", err)
			}
			if len(rs.Params) > 0 {
				continue // needs bindings; the parameter-free pool suffices
			}
			got, err := rs.Exec(0, 0)
			if err != nil {
				return nil, fmt.Errorf("post-cell exec %s: %v", q.Name, err)
			}
			want, err := ref.encoded(qi, nil)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(wire.EncodeRows(got), want) {
				c.Divergences++
				fmt.Fprintf(os.Stderr, "fdload: mixed cell did not restore seed state (%s diverges)\n", q.Name)
			}
		}
	}
	return c, nil
}

// runWorker is one connection's load loop for the cell's duration.
func runWorker(cl *wire.Client, ref *reference, mix string, cfg config, rng *rand.Rand, workerID int, st *workerStats) {
	queries := ref.queries
	stmts := make([]*wire.RemoteStmt, len(queries))
	for i := range queries {
		rs, err := cl.Prepare(&queries[i].Spec)
		if err != nil {
			st.errors++
			return
		}
		stmts[i] = rs
	}

	// Mixed mix: this worker's private oid range and its live rows.
	oidNext := int64(writeBase + workerID*writeStride)
	var inserted [][]wire.Value

	deadline := time.Now().Add(cfg.duration)
	for time.Now().Before(deadline) {
		switch {
		case mix == mixMixed && rng.Intn(10) == 0:
			// 10% writes: grow the private range, occasionally shrink it.
			if len(inserted) > 4 && rng.Intn(3) == 0 {
				row := inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
				_, err := cl.Delete("Orders", [][]wire.Value{row})
				st.ops++
				if err != nil {
					st.errors++
				}
			} else {
				row := []wire.Value{wire.Int(oidNext), wire.Int(int64(rng.Intn(50) + 1))}
				oidNext++
				_, err := cl.Insert("Orders", [][]wire.Value{row})
				st.ops++
				if err != nil {
					st.errors++
				} else {
					inserted = append(inserted, row)
				}
			}
		case mix == mixSnapshot:
			snap, err := cl.Snapshot()
			if err != nil {
				st.errors++
				st.ops++
				continue
			}
			for i := 0; i < 5; i++ {
				qi := rng.Intn(len(queries))
				args := queries[qi].Args(rng)
				rows, err := stmts[qi].Exec(snap.ID, 0, args...)
				st.ops++
				if err != nil {
					st.errors++
					continue
				}
				// The snapshot mix runs against an unchanging seed state, so
				// pinned reads are checked against the reference too.
				checkRead(ref, qi, args, rows, st)
			}
			if err := cl.Release(snap.ID); err != nil {
				st.errors++
			}
		default:
			qi := rng.Intn(len(queries))
			args := queries[qi].Args(rng)
			rows, err := stmts[qi].Exec(0, 0, args...)
			st.ops++
			if err != nil {
				st.errors++
				continue
			}
			if mix == mixRead {
				// Only the read-only mix checks live reads: the mixed mix
				// races its own writes, so its live reads have no stable
				// oracle (the cell-end restoration check covers it).
				checkRead(ref, qi, args, rows, st)
			}
		}
	}

	// Mixed cleanup: put the database back to the seed state.
	if len(inserted) > 0 {
		if _, err := cl.Delete("Orders", inserted); err != nil {
			st.errors++
		}
	}
	for _, rs := range stmts {
		if rs != nil {
			if err := rs.Close(); err != nil {
				st.errors++
			}
		}
	}
}

// checkRead compares one wire response byte for byte against library
// execution of the same statement and arguments.
func checkRead(ref *reference, qi int, args []wire.Arg, rows *wire.Rows, st *workerStats) {
	want, err := ref.encoded(qi, args)
	if err != nil {
		st.errors++
		return
	}
	st.checked++
	if !bytes.Equal(wire.EncodeRows(rows), want) {
		st.divergences++
	}
}
