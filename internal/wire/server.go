package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	fdb "repro"
)

// Options configures a Server. The zero value picks serving defaults.
type Options struct {
	// MaxConns caps concurrently open connections; a connection beyond the
	// cap is answered with one CodeOverload error frame and closed.
	// Default 256.
	MaxConns int
	// MaxInflight caps concurrently executing requests across all
	// connections (the shared execution slots). Default 64.
	MaxInflight int
	// Queue bounds the admission queue: requests waiting for an execution
	// slot. A request arriving with the queue full is shed immediately
	// with CodeOverload. Default 256.
	Queue int
	// ReqTimeout bounds one request's execution; an expired request is
	// answered with CodeTimeout. Default 10s.
	ReqTimeout time.Duration
	// MaxFrame caps one frame's payload: larger requests are refused, larger
	// results answered with a typed error. Default and ceiling MaxFrame
	// (16 MiB), the limit clients read with.
	MaxFrame int
}

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 256
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.Queue <= 0 {
		o.Queue = 256
	}
	if o.ReqTimeout <= 0 {
		o.ReqTimeout = 10 * time.Second
	}
	if o.MaxFrame <= 0 || o.MaxFrame > MaxFrame {
		o.MaxFrame = MaxFrame
	}
	return o
}

// Server speaks the wire protocol over a listener, fronting one database.
// Every connection prepares through the database's plan cache, so a
// thousand connections preparing the same query shape compile it once; each
// connection owns its statement handles and pinned snapshots, released when
// it closes. Requests admit through a bounded queue onto shared execution
// slots — overload sheds loudly instead of queueing without bound — and a
// graceful Shutdown drains in-flight requests before closing connections.
type Server struct {
	db   *fdb.DB
	opts Options
	m    *metrics

	ln       net.Listener
	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining atomic.Bool
	slots    chan struct{}
	wg       sync.WaitGroup

	// hook, when non-nil, runs in the request goroutine before an admitted
	// request executes — the deterministic scheduling point the pipelining
	// and timeout tests block on. Never set outside tests.
	hook func(verb byte, id uint32)
}

// NewServer wraps a database in a wire server.
func NewServer(db *fdb.DB, opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		db:    db,
		opts:  opts,
		m:     &metrics{start: time.Now()},
		conns: map[*conn]struct{}{},
		slots: make(chan struct{}, opts.MaxInflight),
	}
}

// Listen binds addr (e.g. "127.0.0.1:4321"; port 0 picks a free port) and
// starts accepting connections in the background. The bound address is
// returned for clients to dial.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Addr returns the listener address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal accept error
		}
		s.m.totalConns.Add(1)
		if s.draining.Load() {
			s.refuse(c, CodeDraining, "server draining")
			continue
		}
		s.mu.Lock()
		over := len(s.conns) >= s.opts.MaxConns
		var cc *conn
		if !over {
			cc = newConn(s, c)
			s.conns[cc] = struct{}{}
		}
		s.mu.Unlock()
		if over {
			s.m.shedConns.Add(1)
			s.refuse(c, CodeOverload, fmt.Sprintf("connection limit (%d) reached", s.opts.MaxConns))
			continue
		}
		s.m.conns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			cc.serve()
		}()
	}
}

// refuse answers a connection the server will not serve with one error
// frame and closes it.
func (s *Server) refuse(c net.Conn, code byte, msg string) {
	_ = c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_ = WriteFrame(c, Frame{Kind: RespErr, ID: 0, Body: EncodeError(code, msg)})
	_ = c.Close()
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		s.m.conns.Add(-1)
	}
	s.mu.Unlock()
}

// admit acquires an execution slot, waiting in the bounded admission queue
// when all slots are busy. It returns a release closure, or a protocol
// error when the queue is full (shed) or the connection is going away.
func (s *Server) admit(c *conn) (func(), *Error) {
	select {
	case s.slots <- struct{}{}:
	default:
		if s.m.queued.Add(1) > int64(s.opts.Queue) {
			s.m.queued.Add(-1)
			s.m.shed.Add(1)
			return nil, &Error{Code: CodeOverload, Msg: fmt.Sprintf("admission queue full (%d waiting, %d slots)", s.opts.Queue, s.opts.MaxInflight)}
		}
		select {
		case s.slots <- struct{}{}:
			s.m.queued.Add(-1)
		case <-c.done:
			s.m.queued.Add(-1)
			return nil, &Error{Code: CodeDraining, Msg: "connection closing"}
		}
	}
	s.m.inflight.Add(1)
	return func() {
		s.m.inflight.Add(-1)
		<-s.slots
	}, nil
}

// Shutdown gracefully drains the server: stop accepting, answer new
// requests on existing connections with CodeDraining, let in-flight
// requests complete, then close every connection (releasing its pinned
// snapshots). When ctx expires first, remaining connections are closed
// forcibly. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	ln := s.ln
	open := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range open {
		go c.drain()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats assembles the server and engine metrics the STATS verb reports.
func (s *Server) Stats() *Stats {
	now := time.Now()
	cs := s.db.CacheStats()
	st := &Stats{
		UptimeSec:     now.Sub(s.m.start).Seconds(),
		Conns:         s.m.conns.Load(),
		TotalConns:    s.m.totalConns.Load(),
		ShedConns:     s.m.shedConns.Load(),
		Requests:      s.m.requests.Load(),
		Errors:        s.m.errors.Load(),
		Shed:          s.m.shed.Load(),
		Timeouts:      s.m.timeouts.Load(),
		Panics:        s.m.panics.Load(),
		Inflight:      s.m.inflight.Load(),
		Queued:        s.m.queued.Load(),
		QPS1:          s.m.window.rate(now, 1),
		QPS10:         s.m.window.rate(now, 10),
		CacheHits:     cs.Hits,
		CacheMisses:   cs.Misses,
		CacheEntries:  cs.Entries,
		OpenSnapshots: s.db.OpenSnapshots(),
		Version:       s.db.Version(),
		PlanFallbacks: cs.BudgetFallbacks,
	}
	if total := cs.Hits + cs.Misses; total > 0 {
		st.CacheHitRate = float64(cs.Hits) / float64(total)
	}
	rp50, rp99 := s.m.reads.percentiles()
	wp50, wp99 := s.m.writes.percentiles()
	st.ReadP50us = float64(rp50) / 1e3
	st.ReadP99us = float64(rp99) / 1e3
	st.WriteP50us = float64(wp50) / 1e3
	st.WriteP99us = float64(wp99) / 1e3
	return st
}

// isTimeout reports whether the request error is the per-request deadline.
func isTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}
