package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wlpm"
	"wlpm/client"
	"wlpm/internal/server"
)

const tenantName = "bench"

// serveStack is a real wlserved stack on a loopback listener: server.New
// over a timing wrapper of the façade's engine, served behind a timing
// middleware around Server.Handler, and one closed-loop client session
// over a transport that counts response bytes. One query is in flight at
// a time, so the server-side wrappers attribute their spans to the
// query the client is running (cur).
type serveStack struct {
	sys    *wlpm.System
	srv    *server.Server
	hs     *http.Server
	served chan error
	tport  *http.Transport
	sess   *client.Session
	wire   atomic.Int64 // /v1/query response bytes received
	tr     atomic.Pointer[tracer]

	mu  sync.Mutex
	cur inflight
}

// inflight is the client's current query as the server side sees it.
type inflight struct {
	qid     int64
	root    int           // the client's query span
	handler int           // the server.handler span
	done    chan struct{} // closed when the handler has returned
}

func startServe(sys *wlpm.System, catalog map[string]wlpm.Collection, grant int64) (*serveStack, error) {
	st := &serveStack{sys: sys, served: make(chan error, 1)}
	srv, err := server.New(server.Config{
		Engine:  &tracedEngine{Engine: sys.ServeEngine(catalog), st: st},
		Tenants: []server.Tenant{{Name: tenantName, Budget: grant}},
	})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: st.middleware(srv.Handler())}
	go func() { st.served <- st.hs.Serve(ln) }()
	st.tport = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	hc := &http.Client{Transport: &countingTransport{next: st.tport, n: &st.wire}}
	st.sess = client.Dial(ln.Addr().String()).WithHTTPClient(hc).Session(tenantName)
	if _, err := st.sess.Metrics(context.Background()); err != nil {
		st.close() //nolint:errcheck // the reachability error is the one to report
		return nil, fmt.Errorf("server not reachable: %w", err)
	}
	return st, nil
}

// close stops the listener, waits for the serving goroutine and closes
// the tenant sessions.
func (st *serveStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := st.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	st.tport.CloseIdleConnections()
	return err
}

func (st *serveStack) inflight() inflight {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cur
}

// middleware times every /v1/query request around Server.Handler and
// signals the client when the handler has returned.
func (st *serveStack) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			h.ServeHTTP(w, r)
			return
		}
		tr := st.tr.Load()
		st.mu.Lock()
		cur := st.cur
		st.cur.handler = tr.begin("server.handler", cur.root, cur.qid)
		st.mu.Unlock()
		h.ServeHTTP(w, r)
		st.mu.Lock()
		tr.end(st.cur.handler)
		st.mu.Unlock()
		if cur.done != nil {
			close(cur.done)
		}
	})
}

// run executes one query through the client and waits for the server's
// handler to finish before reading the device counters, so a query's
// cacheline counts include its server-side Close.
func (st *serveStack) run(ctx context.Context, q *prepared, qid int64, tr *tracer, buf []byte) (outcome, []byte, error) {
	var o outcome
	dev := st.sys.Device()
	before := dev.Stats()
	done := make(chan struct{})
	t0 := time.Now()
	root := tr.begin("query", 0, qid)
	st.mu.Lock()
	st.cur = inflight{qid: qid, root: root, done: done}
	st.mu.Unlock()
	sp := tr.begin("client.open", root, qid)
	rows, err := st.sess.Query(q.dsl).Rows(ctx)
	tr.end(sp)
	if err != nil {
		return o, buf, fmt.Errorf("open: %w", err)
	}
	sp = tr.begin("client.drain", root, qid)
	var rowCount int
	for rows.Next() {
		buf = append(buf, rows.Record()...)
		rowCount++
	}
	tr.end(sp)
	tr.add("client.rows", float64(rowCount))
	serr := rows.Err()
	o.recSize = rows.RecordSize()
	if end := rows.Explain(); end != nil {
		o.explain = end.Explain
	}
	sp = tr.begin("client.close", root, qid)
	cerr := rows.Close()
	tr.end(sp)
	tr.end(root)
	o.lat = time.Since(t0)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		return o, buf, errors.New("server handler did not return")
	}
	o.dev = dev.Stats().Sub(before)
	if serr != nil {
		return o, buf, fmt.Errorf("stream: %w", serr)
	}
	if cerr != nil {
		return o, buf, fmt.Errorf("close: %w", cerr)
	}
	return o, buf, nil
}

// metrics reads the tenant's server counters.
func (st *serveStack) metrics(ctx context.Context) (server.TenantMetrics, error) {
	m, err := st.sess.Metrics(ctx)
	if err != nil {
		return server.TenantMetrics{}, err
	}
	return m.Tenants[tenantName], nil
}

// countingTransport counts the bytes of /v1/query response bodies.
type countingTransport struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(r)
	if err == nil && r.URL.Path == "/v1/query" {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedEngine wraps the façade's server.Engine, timing the calls the
// server makes into the engine for the query in flight.
type tracedEngine struct {
	server.Engine
	st *serveStack
}

func (e *tracedEngine) OpenSession(tenant string, budget int64, failFast bool, bidSlack float64) (server.EngineSession, error) {
	s, err := e.Engine.OpenSession(tenant, budget, failFast, bidSlack)
	if err != nil {
		return nil, err
	}
	return &tracedSession{EngineSession: s, st: e.st}, nil
}

type tracedSession struct {
	server.EngineSession
	st *serveStack
}

func (s *tracedSession) Query(dsl string) (server.EngineQuery, error) {
	tr, cur := s.st.tr.Load(), s.st.inflight()
	sp := tr.begin("exec.parse", cur.handler, cur.qid)
	q, err := s.EngineSession.Query(dsl)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &tracedQuery{EngineQuery: q, st: s.st}, nil
}

type tracedQuery struct {
	server.EngineQuery
	st *serveStack
}

// Rows times planning (an Explain at the granted budget, traced runs
// only) and the cursor's open: admission, compile and the blocking Open.
func (q *tracedQuery) Rows(ctx context.Context) (server.RowStream, error) {
	tr, cur := q.st.tr.Load(), q.st.inflight()
	if tr != nil {
		sp := tr.begin("exec.plan", cur.handler, cur.qid)
		_, err := q.EngineQuery.Explain()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp := tr.begin("exec.open", cur.handler, cur.qid)
	rs, err := q.EngineQuery.Rows(ctx)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &tracedStream{RowStream: rs, tr: tr, cur: cur}, nil
}

// tracedStream times the server's Next calls (summed into a counter,
// not one span per row) and the cursor's Close.
type tracedStream struct {
	server.RowStream
	tr   *tracer
	cur  inflight
	busy time.Duration
	rows int
}

func (s *tracedStream) Next() bool {
	if s.tr == nil {
		return s.RowStream.Next()
	}
	t := time.Now()
	ok := s.RowStream.Next()
	s.busy += time.Since(t)
	if ok {
		s.rows++
	}
	return ok
}

func (s *tracedStream) Close() error {
	s.tr.add("exec.next_ns", float64(s.busy))
	s.tr.add("exec.rows", float64(s.rows))
	sp := s.tr.begin("storage.close", s.cur.handler, s.cur.qid)
	err := s.RowStream.Close()
	s.tr.end(sp)
	return err
}
