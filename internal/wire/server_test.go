package wire

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	fdb "repro"
)

// newTestServer starts a retailer-seeded server on a free port and tears it
// down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *fdb.DB, string) {
	t.Helper()
	db := fdb.New()
	if err := SeedRetailer(db, 42, 1); err != nil {
		t.Fatalf("seed: %v", err)
	}
	s := NewServer(db, opts)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, db, addr.String()
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

func nativeArgs(args []Arg) []fdb.NamedArg {
	out := make([]fdb.NamedArg, len(args))
	for i, a := range args {
		out[i] = fdb.Arg(a.Name, a.Val.Native())
	}
	return out
}

// libRows executes a wire spec through the library API against db and
// renders it the way the server does — the differential reference.
func libRows(t *testing.T, db *fdb.DB, sp *Spec, args []Arg) *Rows {
	t.Helper()
	clauses, err := sp.Clauses()
	if err != nil {
		t.Fatalf("clauses: %v", err)
	}
	st, err := db.PrepareCached(clauses...)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if sp.IsAgg() {
		res, err := st.ExecAgg(nativeArgs(args)...)
		if err != nil {
			t.Fatalf("exec agg: %v", err)
		}
		return &Rows{Schema: res.Schema(), Rows: res.Rows(0)}
	}
	res, err := st.Exec(nativeArgs(args)...)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return &Rows{Schema: res.Schema(), Rows: res.Rows(0)}
}

// pendingRows resolves a pipelined execution into its rows.
func pendingRows(p *Pending) (*Rows, error) {
	body, err := p.Wait()
	if err != nil {
		return nil, err
	}
	return DecodeRows(body)
}

func sameRows(a, b *Rows) error {
	if !reflect.DeepEqual(a.Schema, b.Schema) {
		return fmt.Errorf("schema %v != %v", a.Schema, b.Schema)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows != %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			return fmt.Errorf("row %d: %v != %v", i, a.Rows[i], b.Rows[i])
		}
	}
	return nil
}

// TestServerDifferential runs the whole retailer read pool over the wire
// and checks every response against library execution on the same database.
func TestServerDifferential(t *testing.T) {
	_, db, addr := newTestServer(t, Options{})
	cl := dialTest(t, addr)
	for _, q := range RetailerQueries() {
		rng := rand.New(rand.NewSource(7))
		rs, err := cl.Prepare(&q.Spec)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q.Name, err)
		}
		if rs.IsAgg != q.Spec.IsAgg() {
			t.Fatalf("%s: IsAgg %v, want %v", q.Name, rs.IsAgg, q.Spec.IsAgg())
		}
		for run := 0; run < 3; run++ {
			args := q.Args(rng)
			got, err := rs.Exec(0, 0, args...)
			if err != nil {
				t.Fatalf("%s run %d: exec: %v", q.Name, run, err)
			}
			want := libRows(t, db, &q.Spec, args)
			if err := sameRows(got, want); err != nil {
				t.Fatalf("%s run %d: wire result diverges from library: %v", q.Name, run, err)
			}
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("%s: close stmt: %v", q.Name, err)
		}
	}
}

// TestPrepareSharesPlanCache: two connections preparing the same shape hit
// the shared plan cache instead of recompiling.
func TestPrepareSharesPlanCache(t *testing.T) {
	s, _, addr := newTestServer(t, Options{})
	q := RetailerQueries()[0]
	c1 := dialTest(t, addr)
	if _, err := c1.Prepare(&q.Spec); err != nil {
		t.Fatal(err)
	}
	before := s.db.CacheStats()
	c2 := dialTest(t, addr)
	if _, err := c2.Prepare(&q.Spec); err != nil {
		t.Fatal(err)
	}
	after := s.db.CacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("second connection's prepare missed the plan cache: %+v -> %+v", before, after)
	}
}

// TestPipelinedOutOfOrder holds the first request at its execution point
// and proves the second, sent later on the same connection, completes
// first — then releases the first and checks both results.
func TestPipelinedOutOfOrder(t *testing.T) {
	s, db, addr := newTestServer(t, Options{})
	gate := make(chan struct{})
	var gated uint32 = 2 // request id of the first exec (id 1 is the Prepare)
	s.hook = func(verb byte, id uint32) {
		if id == gated {
			<-gate
		}
	}
	cl := dialTest(t, addr)
	q := RetailerQueries()[5] // total_count: no params
	rs, err := cl.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := rs.Start(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rs.Start(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The second request must complete while the first is still held.
	got2, err := pendingRows(p2)
	if err != nil {
		t.Fatalf("pipelined second request: %v", err)
	}
	close(gate)
	got1, err := pendingRows(p1)
	if err != nil {
		t.Fatalf("released first request: %v", err)
	}
	want := libRows(t, db, &q.Spec, nil)
	if err := sameRows(got1, want); err != nil {
		t.Fatal(err)
	}
	if err := sameRows(got2, want); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPinning: a pinned snapshot keeps serving the version it
// pinned across live writes; release invalidates the id; a closing
// connection releases its snapshots.
func TestSnapshotPinning(t *testing.T) {
	_, db, addr := newTestServer(t, Options{})
	cl := dialTest(t, addr)
	q := RetailerQueries()[5] // total_count
	rs, err := cl.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Ver != db.Version() {
		t.Fatalf("snapshot pinned version %d, database at %d", snap.Ver, db.Version())
	}
	pinnedBefore, err := rs.Exec(snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Write through the wire: new orders for an item that certainly joins.
	if _, err := cl.Insert("Orders", [][]Value{{Int(100001), Int(1)}, {Int(100002), Int(2)}}); err != nil {
		t.Fatal(err)
	}
	live, err := rs.Exec(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(live.Rows, pinnedBefore.Rows) {
		t.Fatal("live count did not move after insert")
	}
	pinnedAfter, err := rs.Exec(snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(pinnedBefore, pinnedAfter); err != nil {
		t.Fatalf("pinned read not repeatable across a live write: %v", err)
	}
	if db.OpenSnapshots() != 1 {
		t.Fatalf("OpenSnapshots = %d, want 1", db.OpenSnapshots())
	}
	if err := cl.Release(snap.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Exec(snap.ID, 0); asCode(err) != CodeUnknown {
		t.Fatalf("exec on a released snapshot: want CodeUnknown, got %v", err)
	}
	if db.OpenSnapshots() != 0 {
		t.Fatalf("OpenSnapshots = %d after release, want 0", db.OpenSnapshots())
	}
	// A dying connection releases what it pinned.
	c2 := dialTest(t, addr)
	if _, err := c2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_ = c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for db.OpenSnapshots() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("closed connection leaked %d snapshots", db.OpenSnapshots())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func asCode(err error) byte {
	if we, ok := err.(*Error); ok {
		return we.Code
	}
	return 0
}

// TestWritesOverWire mirrors wire writes against library writes on a
// second database and checks the relation contents agree.
func TestWritesOverWire(t *testing.T) {
	_, db, addr := newTestServer(t, Options{})
	mirror := fdb.New()
	if err := SeedRetailer(mirror, 42, 1); err != nil {
		t.Fatal(err)
	}
	cl := dialTest(t, addr)
	ins := [][]Value{{Int(90001), Int(3)}, {Int(90002), Int(4)}}
	wr, err := cl.Insert("Orders", ins)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Ver != db.Version() {
		t.Fatalf("insert reported version %d, database at %d", wr.Ver, db.Version())
	}
	if err := mirror.InsertBatch("Orders", [][]interface{}{{int64(90001), int64(3)}, {int64(90002), int64(4)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Upsert("Orders", 1, [][]Value{{Int(90001), Int(9)}}); err != nil {
		t.Fatal(err)
	}
	if err := mirror.UpsertBatch("Orders", 1, [][]interface{}{{int64(90001), int64(9)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Delete("Orders", [][]Value{{Int(90002), Int(4)}}); err != nil {
		t.Fatal(err)
	}
	if err := mirror.DeleteBatch("Orders", [][]interface{}{{int64(90002), int64(4)}}); err != nil {
		t.Fatal(err)
	}
	sp := NewSpec("Orders")
	sp.Sels = []Sel{SelInt("Orders.oid", OpGE, 90000)}
	sp.OrderBy = []OrderKey{{Attr: "Orders.oid"}, {Attr: "Orders.item"}}
	rs, err := cl.Prepare(&sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.Exec(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := libRows(t, mirror, &sp, nil)
	if err := sameRows(got, want); err != nil {
		t.Fatalf("wire writes diverge from library writes: %v", err)
	}
	// Write to a relation that does not exist fails loudly.
	if _, err := cl.Insert("Nope", [][]Value{{Int(1)}}); asCode(err) != CodeQuery {
		t.Fatalf("insert into unknown relation: want CodeQuery, got %v", err)
	}
	// So does an upsert batch naming one key twice, and it changes nothing.
	ver := db.Version()
	dup := [][]Value{{Int(90001), Int(20)}, {Int(90001), Int(30)}}
	if _, err := cl.Upsert("Orders", 1, dup); asCode(err) != CodeQuery || !strings.Contains(err.Error(), "key [90001]") {
		t.Fatalf("duplicate-key upsert batch: want CodeQuery naming key [90001], got %v", err)
	}
	if db.Version() != ver {
		t.Fatalf("rejected upsert batch bumped the version %d -> %d", ver, db.Version())
	}
}

// TestAdmissionControl: with one execution slot and a one-deep queue, a
// third concurrent request is shed with CodeOverload and counted.
func TestAdmissionControl(t *testing.T) {
	s, _, addr := newTestServer(t, Options{MaxInflight: 1, Queue: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	s.hook = func(verb byte, id uint32) {
		if verb == VerbExec {
			started <- struct{}{}
			<-gate
		}
	}
	defer close(gate)
	q := RetailerQueries()[5]
	c1, c2, c3 := dialTest(t, addr), dialTest(t, addr), dialTest(t, addr)
	rs1, err := c1.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := c2.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	rs3, err := c3.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := rs1.Start(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the slot is now held behind the gate
	p2, err := rs2.Start(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "request queued", func() bool { return s.m.queued.Load() == 1 })
	p3, err := rs3.Start(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pendingRows(p3); asCode(err) != CodeOverload {
		t.Fatalf("third request: want CodeOverload, got %v", err)
	}
	gate <- struct{}{} // release the first
	if _, err := pendingRows(p1); err != nil {
		t.Fatalf("first request after release: %v", err)
	}
	<-started // the queued request took the slot
	gate <- struct{}{}
	if _, err := pendingRows(p2); err != nil {
		t.Fatalf("queued request after release: %v", err)
	}
	if got := s.m.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnLimit: a connection beyond MaxConns is answered with one
// CodeOverload frame and closed.
func TestConnLimit(t *testing.T) {
	_, _, addr := newTestServer(t, Options{MaxConns: 1})
	c1 := dialTest(t, addr)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := ReadFrame(raw, 0)
	if err != nil {
		t.Fatalf("read refusal frame: %v", err)
	}
	if f.Kind != RespErr {
		t.Fatalf("refusal kind 0x%02x, want RespErr", f.Kind)
	}
	if e := DecodeError(f.Body); e.Code != CodeOverload {
		t.Fatalf("refusal code %d, want CodeOverload", e.Code)
	}
	if _, err := ReadFrame(raw, 0); err == nil {
		t.Fatal("refused connection stayed open")
	}
}

// TestRequestTimeout: a request whose deadline has passed is answered with
// CodeTimeout and counted.
func TestRequestTimeout(t *testing.T) {
	s, _, addr := newTestServer(t, Options{ReqTimeout: time.Nanosecond})
	cl := dialTest(t, addr)
	q := RetailerQueries()[5]
	rs, err := cl.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Exec(0, 0); asCode(err) != CodeTimeout {
		t.Fatalf("want CodeTimeout, got %v", err)
	}
	if got := s.m.timeouts.Load(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestErrorPaths: stale handles, verb mismatch and unknown verbs all fail
// loudly with the right code, and none of them kill the connection.
func TestErrorPaths(t *testing.T) {
	_, db, addr := newTestServer(t, Options{})
	cl := dialTest(t, addr)
	q := RetailerQueries()[5] // aggregate
	rs, err := cl.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown statement handle.
	if _, err := cl.do(VerbExec, EncodeExecReq(&ExecReq{Handle: 999})); asCode(err) != CodeUnknown {
		t.Fatalf("unknown handle: want CodeUnknown, got %v", err)
	}
	// There is one EXEC verb: on an aggregate handle it answers the
	// aggregate rows, the handle knows its shape.
	body, err := cl.do(VerbExec, EncodeExecReq(&ExecReq{Handle: rs.Handle}))
	if err != nil {
		t.Fatalf("EXEC on an aggregate handle: %v", err)
	}
	got, err := DecodeRows(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(got, libRows(t, db, &q.Spec, nil)); err != nil {
		t.Fatalf("EXEC on an aggregate handle diverges from ExecAgg: %v", err)
	}
	// The retired EXEC_AGG byte is an unknown verb like any other.
	if _, err := cl.do(0x04, EncodeExecReq(&ExecReq{Handle: rs.Handle})); asCode(err) != CodeBadRequest ||
		!strings.Contains(err.Error(), "unknown verb") {
		t.Fatalf("retired verb 0x04: want CodeBadRequest \"unknown verb\", got %v", err)
	}
	// Unknown snapshot id.
	if _, err := rs.Exec(888, 0); asCode(err) != CodeUnknown {
		t.Fatalf("unknown snapshot: want CodeUnknown, got %v", err)
	}
	// Malformed body.
	if _, err := cl.do(VerbExec, []byte{1, 2}); asCode(err) != CodeBadRequest {
		t.Fatalf("malformed body: want CodeBadRequest, got %v", err)
	}
	// Unknown verb.
	if _, err := cl.do(0x7F, nil); asCode(err) != CodeBadRequest {
		t.Fatalf("unknown verb: want CodeBadRequest, got %v", err)
	}
	// Closing a handle twice reports the staleness.
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); asCode(err) != CodeUnknown {
		t.Fatalf("double close: want CodeUnknown, got %v", err)
	}
	// Unprepared spec errors come back as CodeQuery.
	bad := NewSpec("Nope")
	if _, err := cl.Prepare(&bad); asCode(err) != CodeQuery {
		t.Fatalf("prepare of unknown relation: want CodeQuery, got %v", err)
	}
	// The connection survived all of it.
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection died on error paths: %v", err)
	}
}

// TestResultTooLarge: a result the frame limit cannot carry is answered
// with a typed error naming the sizes and the knob, and the connection
// serves the next request — the same statement under a row cap.
func TestResultTooLarge(t *testing.T) {
	const limit = 4096
	_, _, addr := newTestServer(t, Options{MaxFrame: limit})
	cl := dialTest(t, addr)
	join := retailerJoin()
	rs, err := cl.Prepare(&join)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Exec(0, 0)
	if asCode(err) != CodeQuery {
		t.Fatalf("oversize result: want CodeQuery, got %v", err)
	}
	for _, want := range []string{"result too large", fmt.Sprint(limit), "MaxRows"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	rows, err := rs.Exec(0, 10)
	if err != nil {
		t.Fatalf("capped exec on the same connection: %v", err)
	}
	if len(rows.Rows) != 10 {
		t.Fatalf("capped exec returned %d rows, want 10", len(rows.Rows))
	}
}

// TestPanicContained: a panic in one request's goroutine is answered with
// CodeInternal on that request's id and counted; the same connection, other
// connections and the server keep serving, and the panicking request gave
// its execution slot back (there is only one).
func TestPanicContained(t *testing.T) {
	s, db, addr := newTestServer(t, Options{MaxInflight: 1})
	var boom uint32 = 2 // request id of the first exec (id 1 is the Prepare)
	s.hook = func(verb byte, id uint32) {
		if verb == VerbExec && id == boom {
			panic("injected fault")
		}
	}
	cl, other := dialTest(t, addr), dialTest(t, addr)
	q := RetailerQueries()[5]
	rs, err := cl.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Exec(0, 0)
	if asCode(err) != CodeInternal || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("panicking request: want CodeInternal naming the panic, got %v", err)
	}
	got, err := rs.Exec(0, 0)
	if err != nil {
		t.Fatalf("next request on the same connection: %v", err)
	}
	if err := sameRows(got, libRows(t, db, &q.Spec, nil)); err != nil {
		t.Fatal(err)
	}
	if err := other.Ping(); err != nil {
		t.Fatalf("other connection died with the panic: %v", err)
	}
	st, err := other.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Panics != 1 {
		t.Fatalf("stats after a contained panic: panics %d, want 1", st.Panics)
	}
}

// TestDrainAndReconnect: Shutdown lets the held in-flight request finish,
// answers new requests with CodeDraining, then closes connections; a new
// server on a fresh port accepts the reconnect.
func TestDrainAndReconnect(t *testing.T) {
	s, db, addr := newTestServer(t, Options{})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var gated uint32 = 2
	s.hook = func(verb byte, id uint32) {
		if id == gated {
			started <- struct{}{}
			<-gate
		}
	}
	cl := dialTest(t, addr)
	q := RetailerQueries()[5]
	rs, err := cl.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := rs.Start(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, "draining flag", func() bool { return s.draining.Load() })
	// A new request on the draining connection is refused but answered.
	p2, err := rs.Start(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pendingRows(p2); asCode(err) != CodeDraining {
		t.Fatalf("request during drain: want CodeDraining, got %v", err)
	}
	close(gate)
	// The held request still completes with its result.
	if _, err := pendingRows(p1); err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained listener is gone; a new server takes over and the client
	// reconnects.
	if err := cl.Ping(); err == nil {
		t.Fatal("drained connection still answers")
	}
	s2 := NewServer(db, Options{})
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	cl2 := dialTest(t, addr2.String())
	rs2, err := cl2.Prepare(&q.Spec)
	if err != nil {
		t.Fatalf("prepare after reconnect: %v", err)
	}
	if _, err := rs2.Exec(0, 0); err != nil {
		t.Fatalf("exec after reconnect: %v", err)
	}
}

// TestStats: the STATS verb reports the traffic that actually happened.
func TestStats(t *testing.T) {
	_, _, addr := newTestServer(t, Options{})
	cl := dialTest(t, addr)
	q := RetailerQueries()[0]
	rng := rand.New(rand.NewSource(1))
	rs, err := cl.Prepare(&q.Spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := rs.Exec(0, 0, q.Args(rng)...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Insert("Orders", [][]Value{{Int(70001), Int(5)}}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests < 12 {
		t.Fatalf("Requests = %d, want >= 12", st.Requests)
	}
	if st.Conns != 1 || st.TotalConns != 1 {
		t.Fatalf("Conns = %d TotalConns = %d, want 1/1", st.Conns, st.TotalConns)
	}
	if st.ReadP50us <= 0 || st.ReadP99us < st.ReadP50us {
		t.Fatalf("read percentiles implausible: p50=%v p99=%v", st.ReadP50us, st.ReadP99us)
	}
	if st.WriteP99us <= 0 {
		t.Fatalf("write p99 missing: %v", st.WriteP99us)
	}
	if st.CacheEntries == 0 {
		t.Fatal("plan cache empty after prepares")
	}
	if st.Version == 0 {
		t.Fatal("write version missing")
	}
}

// TestLatRing covers the percentile edge cases directly.
func TestLatRing(t *testing.T) {
	var r latRing
	if p50, p99 := r.percentiles(); p50 != 0 || p99 != 0 {
		t.Fatalf("empty ring: %d/%d", p50, p99)
	}
	for i := int64(1); i <= 100; i++ {
		r.observe(i)
	}
	p50, p99 := r.percentiles()
	if p50 < 45 || p50 > 55 || p99 < 95 || p99 > 100 {
		t.Fatalf("p50=%d p99=%d out of range", p50, p99)
	}
	// Overflow the ring; only the newest window is retained.
	for i := int64(0); i < ringSize+500; i++ {
		r.observe(1000)
	}
	p50, p99 = r.percentiles()
	if p50 != 1000 || p99 != 1000 {
		t.Fatalf("after overflow: p50=%d p99=%d, want 1000/1000", p50, p99)
	}
}
