package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	fdb "repro"
)

// conn serves one client connection: a read loop that decodes frames and
// dispatches them, cheap verbs handled inline, execution verbs admitted
// onto the server's shared slots and run in their own goroutines so that
// pipelined requests complete out of order. Responses serialise through a
// write mutex; statement handles and pinned snapshots die with the
// connection.
type conn struct {
	srv *Server
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	wmu sync.Mutex

	mu     sync.Mutex
	stmts  map[uint32]*fdb.Stmt // handle -> statement (possibly shared through the plan cache; the handle is connection-local)
	snaps  map[uint32]*fdb.Snapshot
	pinned map[uint64]*fdb.Stmt // (snap id << 32 | handle) -> pinned statement
	nextID uint32               // handle and snapshot id allocator (shared; ids only need uniqueness)

	reqWG     sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

func newConn(s *Server, c net.Conn) *conn {
	return &conn{
		srv:    s,
		c:      c,
		br:     bufio.NewReaderSize(c, 64<<10),
		bw:     bufio.NewWriterSize(c, 64<<10),
		stmts:  map[uint32]*fdb.Stmt{},
		snaps:  map[uint32]*fdb.Snapshot{},
		pinned: map[uint64]*fdb.Stmt{},
		done:   make(chan struct{}),
	}
}

// serve runs the connection's read loop until the peer goes away, a frame
// is malformed (framing is lost, so the connection closes), or the server
// closes the connection during shutdown.
func (c *conn) serve() {
	defer c.close()
	for {
		f, err := ReadFrame(c.br, c.srv.opts.MaxFrame)
		if err != nil {
			return
		}
		c.dispatch(f)
	}
}

// dispatch routes one request frame. Ping, statistics and handle
// bookkeeping answer inline from the read loop — they touch no data and
// must stay responsive under execution load; everything else admits onto
// the shared execution slots and runs in its own goroutine, which is what
// makes pipelining real: the read loop is already decoding the next frame
// while this request executes. A panic in that goroutine is contained to
// its request: the client gets CodeInternal on the request's id, the
// connection and every other tenant keep being served.
func (c *conn) dispatch(f Frame) {
	if c.srv.draining.Load() {
		c.reply(f.ID, CodeDraining, "server draining", nil)
		return
	}
	switch f.Kind {
	case VerbPing:
		c.reply(f.ID, 0, "", nil)
	case VerbStats:
		body, err := json.Marshal(c.srv.Stats())
		if err != nil {
			c.reply(f.ID, CodeQuery, err.Error(), nil)
			return
		}
		c.reply(f.ID, 0, "", body)
	case VerbCloseStmt:
		c.closeStmt(f)
	case VerbSnapshot:
		c.handleSnapshot(f)
	case VerbRelease:
		c.releaseSnap(f)
	case VerbPrepare, VerbExec, VerbInsert, VerbDelete, VerbUpsert:
		release, aerr := c.srv.admit(c)
		if aerr != nil {
			c.reply(f.ID, aerr.Code, aerr.Msg, nil)
			return
		}
		c.reqWG.Add(1)
		go func() {
			defer c.reqWG.Done()
			defer release()
			defer func() {
				if p := recover(); p != nil {
					c.srv.m.panics.Add(1)
					c.reply(f.ID, CodeInternal, fmt.Sprintf("internal error: %v", p), nil)
				}
			}()
			if h := c.srv.hook; h != nil {
				h(f.Kind, f.ID)
			}
			c.execute(f)
		}()
	default:
		c.reply(f.ID, CodeBadRequest, fmt.Sprintf("unknown verb 0x%02x", f.Kind), nil)
	}
}

// execute handles one admitted request (its own goroutine). Reads and
// writes are timed up to the point their reply is ready and the latency is
// recorded before the reply is sent, so a client that has seen its reply
// finds its own request in the next STATS.
func (c *conn) execute(f Frame) {
	start := time.Now()
	switch f.Kind {
	case VerbPrepare:
		c.handlePrepare(f)
	case VerbExec:
		code, msg, body := c.handleExec(f)
		c.srv.m.reads.observe(time.Since(start).Nanoseconds())
		c.reply(f.ID, code, msg, body)
	case VerbInsert, VerbDelete, VerbUpsert:
		code, msg, body := c.handleWrite(f)
		c.srv.m.writes.observe(time.Since(start).Nanoseconds())
		c.reply(f.ID, code, msg, body)
	}
}

// reply sends one response frame: RespOK with body when code is zero,
// RespErr otherwise. All request accounting funnels through here. The only
// body that can grow past the frame limit, EXEC's, is bounded while it is
// written (ExecReply), so none arrives here too large.
func (c *conn) reply(id uint32, code byte, msg string, body []byte) {
	f := Frame{Kind: RespOK, ID: id, Body: body}
	if code != 0 {
		f.Kind = RespErr
		f.Body = EncodeError(code, msg)
		c.srv.m.errors.Add(1)
		if code == CodeTimeout {
			c.srv.m.timeouts.Add(1)
		}
	}
	c.srv.m.requests.Add(1)
	c.srv.m.window.observe(time.Now())
	c.wmu.Lock()
	err := WriteFrame(c.bw, f)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.close()
	}
}

func (c *conn) handlePrepare(f Frame) {
	sp, err := DecodeSpec(f.Body)
	if err != nil {
		c.reply(f.ID, CodeBadRequest, err.Error(), nil)
		return
	}
	clauses, err := sp.Clauses()
	if err != nil {
		c.reply(f.ID, CodeBadRequest, err.Error(), nil)
		return
	}
	st, err := c.srv.db.PrepareCached(clauses...)
	if err != nil {
		c.reply(f.ID, CodeQuery, err.Error(), nil)
		return
	}
	c.mu.Lock()
	c.nextID++
	h := c.nextID
	c.stmts[h] = st
	c.mu.Unlock()
	c.reply(f.ID, 0, "", EncodePrepareResp(&PrepareResp{Handle: h, Params: st.Params(), IsAgg: sp.IsAgg()}))
}

// stmtFor resolves the statement a request executes: the live cached
// statement, or — under a pinned snapshot — a snapshot-bound variant,
// created on first use per (snapshot, handle) and cached so repeated
// executions pay the input load once.
func (c *conn) stmtFor(req *ExecReq) (*fdb.Stmt, *Error) {
	c.mu.Lock()
	live, ok := c.stmts[req.Handle]
	if !ok {
		c.mu.Unlock()
		return nil, &Error{Code: CodeUnknown, Msg: fmt.Sprintf("unknown statement handle %d", req.Handle)}
	}
	if req.Snap == 0 {
		c.mu.Unlock()
		return live, nil
	}
	snap, ok := c.snaps[req.Snap]
	if !ok {
		c.mu.Unlock()
		return nil, &Error{Code: CodeUnknown, Msg: fmt.Sprintf("unknown snapshot %d", req.Snap)}
	}
	key := uint64(req.Snap)<<32 | uint64(req.Handle)
	if st, ok := c.pinned[key]; ok {
		c.mu.Unlock()
		return st, nil
	}
	c.mu.Unlock()
	pst, err := snap.Bind(live)
	if err != nil {
		return nil, &Error{Code: CodeQuery, Msg: err.Error()}
	}
	c.mu.Lock()
	if prev, ok := c.pinned[key]; ok {
		pst = prev // a concurrent bind won; both are equivalent
	} else if _, live := c.snaps[req.Snap]; live {
		c.pinned[key] = pst
	}
	c.mu.Unlock()
	return pst, nil
}

// handleExec runs one EXEC and returns its reply.
func (c *conn) handleExec(f Frame) (code byte, msg string, body []byte) {
	req, err := DecodeExecReq(f.Body)
	if err != nil {
		return CodeBadRequest, err.Error(), nil
	}
	st, werr := c.stmtFor(req)
	if werr != nil {
		return werr.Code, werr.Msg, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.srv.opts.ReqTimeout)
	defer cancel()
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return c.execErr(context.DeadlineExceeded)
	}
	body, err = ExecReply(ctx, st, req.Args, int(req.MaxRows), c.srv.opts.MaxFrame)
	if err != nil {
		return c.execErr(err)
	}
	return 0, "", body
}

// execErr is the error reply of a failed execution.
func (c *conn) execErr(err error) (code byte, msg string, body []byte) {
	if isTimeout(err) {
		return CodeTimeout, fmt.Sprintf("request exceeded the %s execution budget", c.srv.opts.ReqTimeout), nil
	}
	return CodeQuery, err.Error(), nil
}

// handleWrite runs one INSERT, DELETE or UPSERT and returns its reply.
func (c *conn) handleWrite(f Frame) (code byte, msg string, body []byte) {
	req, err := DecodeWriteReq(f.Body)
	if err != nil {
		return CodeBadRequest, err.Error(), nil
	}
	rows := make([][]interface{}, len(req.Rows))
	for i, r := range req.Rows {
		row := make([]interface{}, len(r))
		for j, v := range r {
			row[j] = v.Native()
		}
		rows[i] = row
	}
	db := c.srv.db
	switch f.Kind {
	case VerbInsert:
		err = db.InsertBatch(req.Rel, rows)
	case VerbDelete:
		err = db.DeleteBatch(req.Rel, rows)
	case VerbUpsert:
		err = db.UpsertBatch(req.Rel, int(req.KeyCols), rows)
	}
	if err != nil {
		return CodeQuery, err.Error(), nil
	}
	return 0, "", EncodeWriteResp(&WriteResp{Ver: db.Version()})
}

func (c *conn) handleSnapshot(f Frame) {
	snap := c.srv.db.Snapshot()
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.snaps[id] = snap
	c.mu.Unlock()
	c.reply(f.ID, 0, "", EncodeSnapResp(&SnapResp{ID: id, Ver: snap.Version()}))
}

func (c *conn) closeStmt(f Frame) {
	h, err := DecodeU32(f.Body)
	if err != nil {
		c.reply(f.ID, CodeBadRequest, err.Error(), nil)
		return
	}
	c.mu.Lock()
	_, ok := c.stmts[h]
	delete(c.stmts, h)
	for key := range c.pinned {
		if uint32(key) == h {
			delete(c.pinned, key)
		}
	}
	c.mu.Unlock()
	if !ok {
		c.reply(f.ID, CodeUnknown, fmt.Sprintf("unknown statement handle %d", h), nil)
		return
	}
	c.reply(f.ID, 0, "", nil)
}

func (c *conn) releaseSnap(f Frame) {
	id, err := DecodeU32(f.Body)
	if err != nil {
		c.reply(f.ID, CodeBadRequest, err.Error(), nil)
		return
	}
	c.mu.Lock()
	snap, ok := c.snaps[id]
	delete(c.snaps, id)
	for key := range c.pinned {
		if uint32(key>>32) == id {
			delete(c.pinned, key)
		}
	}
	c.mu.Unlock()
	if !ok {
		c.reply(f.ID, CodeUnknown, fmt.Sprintf("unknown snapshot %d", id), nil)
		return
	}
	snap.Close()
	c.reply(f.ID, 0, "", nil)
}

// drain waits for the connection's in-flight requests, then closes it —
// the per-connection half of Server.Shutdown.
func (c *conn) drain() {
	c.reqWG.Wait()
	c.close()
}

// close tears the connection down once: socket closed (unblocking the read
// loop), queued admissions aborted, and every pinned snapshot released so a
// dying connection never leaks a pinned version.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		close(c.done)
		_ = c.c.Close()
		c.mu.Lock()
		snaps := make([]*fdb.Snapshot, 0, len(c.snaps))
		for _, s := range c.snaps {
			snaps = append(snaps, s)
		}
		c.snaps = map[uint32]*fdb.Snapshot{}
		c.pinned = map[uint64]*fdb.Stmt{}
		c.stmts = map[uint32]*fdb.Stmt{}
		c.mu.Unlock()
		for _, s := range snaps {
			s.Close()
		}
		c.srv.dropConn(c)
	})
}
