package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
)

// Client speaks the wire protocol to one server connection. It is safe for
// concurrent use: requests are multiplexed by request id, so any number may
// be in flight at once (pipelining), and responses resolve whichever call
// is waiting on that id regardless of arrival order. Once the connection
// fails, every pending and future call returns the same error; dial a new
// client to reconnect.
type Client struct {
	c  net.Conn
	bw *bufio.Writer

	wmu sync.Mutex // serialises frame writes

	mu      sync.Mutex
	pending map[uint32]chan Frame
	nextID  uint32
	err     error // set once the connection is dead
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:       c,
		bw:      bufio.NewWriterSize(c, 64<<10),
		pending: map[uint32]chan Frame{},
	}
	go cl.readLoop()
	return cl, nil
}

// readLoop delivers response frames to their pending calls; any read error
// kills the connection and fails everything waiting.
func (cl *Client) readLoop() {
	br := bufio.NewReaderSize(cl.c, 64<<10)
	for {
		f, err := ReadFrame(br, MaxFrame)
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("wire: connection closed by server")
			}
			cl.fail(err)
			return
		}
		cl.mu.Lock()
		ch, ok := cl.pending[f.ID]
		delete(cl.pending, f.ID)
		cl.mu.Unlock()
		if ok {
			ch <- f
		}
		// A response for an id nobody waits on (e.g. the server's single
		// refusal frame with id 0 racing a pending call) is dropped; the
		// read error that follows fails the pending calls.
	}
}

// fail marks the client dead with err and wakes every pending call.
func (cl *Client) fail(err error) {
	cl.mu.Lock()
	if cl.err == nil {
		cl.err = err
	}
	pend := cl.pending
	cl.pending = map[uint32]chan Frame{}
	cl.mu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
	_ = cl.c.Close()
}

// Close tears the connection down; pending calls fail.
func (cl *Client) Close() error {
	cl.fail(fmt.Errorf("wire: client closed"))
	return nil
}

// Pending is one in-flight request; Wait blocks for its response. Issuing
// several calls before waiting on any of them is how a caller pipelines.
type Pending struct {
	cl *Client
	ch chan Frame
}

// Wait blocks until the response arrives and returns its body (RespErr
// bodies decode into *Error).
func (p *Pending) Wait() ([]byte, error) {
	f, ok := <-p.ch
	if !ok {
		p.cl.mu.Lock()
		err := p.cl.err
		p.cl.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("wire: connection lost")
		}
		return nil, err
	}
	switch f.Kind {
	case RespOK:
		return f.Body, nil
	case RespErr:
		return nil, DecodeError(f.Body)
	default:
		return nil, fmt.Errorf("wire: unexpected response kind 0x%02x", f.Kind)
	}
}

// Send issues one request without waiting for its response.
func (cl *Client) Send(verb byte, body []byte) (*Pending, error) {
	ch := make(chan Frame, 1)
	cl.mu.Lock()
	if cl.err != nil {
		err := cl.err
		cl.mu.Unlock()
		return nil, err
	}
	cl.nextID++
	id := cl.nextID
	cl.pending[id] = ch
	cl.mu.Unlock()

	cl.wmu.Lock()
	err := WriteFrame(cl.bw, Frame{Kind: verb, ID: id, Body: body})
	if err == nil {
		err = cl.bw.Flush()
	}
	cl.wmu.Unlock()
	if err != nil {
		cl.mu.Lock()
		delete(cl.pending, id)
		cl.mu.Unlock()
		cl.fail(err)
		return nil, err
	}
	return &Pending{cl: cl, ch: ch}, nil
}

// do is the synchronous form: Send then Wait.
func (cl *Client) do(verb byte, body []byte) ([]byte, error) {
	p, err := cl.Send(verb, body)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// Ping round-trips a liveness probe.
func (cl *Client) Ping() error {
	_, err := cl.do(VerbPing, nil)
	return err
}

// RemoteStmt is a prepared statement living on the server, addressed by its
// connection-local handle.
type RemoteStmt struct {
	cl     *Client
	Handle uint32
	Params []string
	IsAgg  bool
}

// Prepare compiles the spec on the server and returns its handle.
func (cl *Client) Prepare(sp *Spec) (*RemoteStmt, error) {
	body, err := cl.do(VerbPrepare, EncodeSpec(sp))
	if err != nil {
		return nil, err
	}
	pr, err := DecodePrepareResp(body)
	if err != nil {
		return nil, err
	}
	return &RemoteStmt{cl: cl, Handle: pr.Handle, Params: pr.Params, IsAgg: pr.IsAgg}, nil
}

// Start issues an execution without waiting: the pipelining form of Exec.
// snap 0 reads live data; maxRows 0 returns all rows.
func (rs *RemoteStmt) Start(snap, maxRows uint32, args ...Arg) (*Pending, error) {
	return rs.cl.Send(VerbExec, EncodeExecReq(&ExecReq{Handle: rs.Handle, Snap: snap, MaxRows: maxRows, Args: args}))
}

// Exec runs the statement and decodes its rows.
func (rs *RemoteStmt) Exec(snap, maxRows uint32, args ...Arg) (*Rows, error) {
	p, err := rs.Start(snap, maxRows, args...)
	if err != nil {
		return nil, err
	}
	body, err := p.Wait()
	if err != nil {
		return nil, err
	}
	return DecodeRows(body)
}

// Close drops the statement handle on the server.
func (rs *RemoteStmt) Close() error {
	_, err := rs.cl.do(VerbCloseStmt, EncodeU32(rs.Handle))
	return err
}

// Snapshot pins a snapshot for this connection and returns its id and the
// write version it pins.
func (cl *Client) Snapshot() (*SnapResp, error) {
	body, err := cl.do(VerbSnapshot, nil)
	if err != nil {
		return nil, err
	}
	return DecodeSnapResp(body)
}

// Release releases a pinned snapshot.
func (cl *Client) Release(id uint32) error {
	_, err := cl.do(VerbRelease, EncodeU32(id))
	return err
}

func (cl *Client) write(verb byte, rel string, keyCols uint32, rows [][]Value) (*WriteResp, error) {
	body, err := cl.do(verb, EncodeWriteReq(&WriteReq{Rel: rel, KeyCols: keyCols, Rows: rows}))
	if err != nil {
		return nil, err
	}
	return DecodeWriteResp(body)
}

// Insert batch-inserts rows into rel (one version bump).
func (cl *Client) Insert(rel string, rows [][]Value) (*WriteResp, error) {
	return cl.write(VerbInsert, rel, 0, rows)
}

// Delete batch-deletes rows from rel (one version bump).
func (cl *Client) Delete(rel string, rows [][]Value) (*WriteResp, error) {
	return cl.write(VerbDelete, rel, 0, rows)
}

// Upsert batch-upserts rows into rel, displacing rows that share the
// keyCols-wide key prefix (one version bump).
func (cl *Client) Upsert(rel string, keyCols int, rows [][]Value) (*WriteResp, error) {
	return cl.write(VerbUpsert, rel, uint32(keyCols), rows)
}

// Stats fetches the server's metrics.
func (cl *Client) Stats() (*Stats, error) {
	body, err := cl.do(VerbStats, nil)
	if err != nil {
		return nil, err
	}
	st := &Stats{}
	if err := json.Unmarshal(body, st); err != nil {
		return nil, err
	}
	return st, nil
}
