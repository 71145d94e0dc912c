package bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	fdb "repro"
	"repro/internal/wire"
)

// pipelineDepth is the number of requests in flight in the pipelined leg.
const pipelineDepth = 8

// wireOverhead is Experiment 11: the cost of the network front-end over
// direct library execution. All three legs run the same parameterised point
// query against the same seeded retailer database — through the library
// API, through one synchronous wire round trip per request, and through the
// wire with pipelineDepth requests in flight — and every wire response is
// checked byte for byte against the library result before timings are
// reported, so the overhead measured is protocol + scheduling, never a
// different answer.
func wireOverhead(cfg Config, scale, ops int) (Table, error) {
	t := Table{Header: []string{
		"Experiment 11: network front-end overhead — library vs wire vs pipelined wire",
		"mode ops ns_per_op p99_ns",
	}}
	db := fdb.New()
	if err := wire.SeedRetailer(db, cfg.Seed, scale); err != nil {
		return t, err
	}
	srv := wire.NewServer(db, wire.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return t, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // the measurements are already taken
	}()
	cl, err := wire.Dial(addr.String())
	if err != nil {
		return t, err
	}
	defer cl.Close()

	// The probe query: the read pool's parameterised point selection.
	q := wire.RetailerQueries()[0]
	clauses, err := q.Spec.Clauses()
	if err != nil {
		return t, err
	}
	st, err := db.PrepareCached(clauses...)
	if err != nil {
		return t, err
	}
	rs, err := cl.Prepare(&q.Spec)
	if err != nil {
		return t, err
	}
	libRows := func(args []wire.Arg) ([]byte, error) {
		rows, err := wire.ExecRows(context.Background(), st, args, 0)
		if err != nil {
			return nil, err
		}
		return wire.EncodeRows(rows), nil
	}

	// Parity check before any timing: every distinct binding must agree.
	parity := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 25; i++ {
		args := q.Args(parity)
		got, err := rs.Exec(0, 0, args...)
		if err != nil {
			return t, fmt.Errorf("bench: exp11: parity exec: %v", err)
		}
		want, err := libRows(args)
		if err != nil {
			return t, err
		}
		if !bytes.Equal(wire.EncodeRows(got), want) {
			return t, fmt.Errorf("bench: exp11: wire leg diverges from library on %v", args)
		}
	}

	// Every leg issues the same argument sequence.
	nsSince := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }
	record := func(mode string, start time.Time, lat []float64) {
		t.add("%s %d %.0f %.0f", mode, ops, nsSince(start)/float64(ops), percentile(lat, 0.99))
	}

	// Legs 1 and 2: direct library execution (prepare amortised, render
	// included), then one synchronous wire round trip per request.
	for _, leg := range []struct {
		mode string
		exec func([]wire.Arg) error
	}{
		{"library", func(args []wire.Arg) error { _, err := libRows(args); return err }},
		{"wire", func(args []wire.Arg) error { _, err := rs.Exec(0, 0, args...); return err }},
	} {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		lat := make([]float64, 0, ops)
		start := time.Now()
		for i := 0; i < ops; i++ {
			args := q.Args(rng)
			t0 := time.Now()
			if err := leg.exec(args); err != nil {
				return t, err
			}
			lat = append(lat, nsSince(t0))
		}
		record(leg.mode, start, lat)
	}

	// Leg 3: the same requests with pipelineDepth in flight; per-op latency
	// is issue-to-completion, throughput is what pipelining buys.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	lat := make([]float64, 0, ops)
	type inflight struct {
		p  *wire.Pending
		t0 time.Time
	}
	var window []inflight
	drainTo := func(n int) error {
		for len(window) > n {
			head := window[0]
			window = window[1:]
			if _, err := wire.WaitRows(head.p); err != nil {
				return err
			}
			lat = append(lat, nsSince(head.t0))
		}
		return nil
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		p, err := rs.Start(0, 0, q.Args(rng)...)
		if err != nil {
			return t, err
		}
		window = append(window, inflight{p: p, t0: time.Now()})
		if err := drainTo(pipelineDepth - 1); err != nil {
			return t, err
		}
	}
	if err := drainTo(0); err != nil {
		return t, err
	}
	record("wire_pipelined", start, lat)
	return t, nil
}
