package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rpe"
)

// tracer records the traced run's spans from outside the program: it
// wraps the HTTP transport, the server's handler, the backend accessor
// and the WAL append hook, and records nothing until switched on. While
// on, one reader runs at a time, so every accessor call belongs to the
// query in flight.
type tracer struct {
	on atomic.Bool

	// Accessor time and counts since the last takeAccessor. Calls run
	// sequentially on the query's goroutine, so summed durations equal
	// the union of their spans.
	selNs, selCalls, extNs, extCalls, extEdges atomic.Int64

	mu       sync.Mutex
	handlers map[string]span // read requests' handler spans, by request ID
	ingests  []time.Duration // /v1/ingest handler durations
	appends  []time.Duration // wal.Manager.Append durations
	nextID   atomic.Int64
}

func newTracer() *tracer { return &tracer{handlers: map[string]span{}} }

// accessorTotals is the accessor work of one query.
type accessorTotals struct {
	sel, ext                  time.Duration
	selCalls, extCalls, edges int64
}

func (t *tracer) takeAccessor() accessorTotals {
	return accessorTotals{
		sel:      time.Duration(t.selNs.Swap(0)),
		ext:      time.Duration(t.extNs.Swap(0)),
		selCalls: t.selCalls.Swap(0),
		extCalls: t.extCalls.Swap(0),
		edges:    t.extEdges.Swap(0),
	}
}

// tracedAccessor times the Select (AnchorElements) and Extend
// (IncidentEdges) calls into the backend.
type tracedAccessor struct {
	plan.Accessor
	t *tracer
}

func (t *tracer) wrapAccessor(a plan.Accessor) plan.Accessor { return tracedAccessor{a, t} }

// Instrument forwards to the backend, which core.DB.Instrument reaches
// only through this optional method.
func (a tracedAccessor) Instrument(reg *obs.Registry) {
	if in, ok := a.Accessor.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

func (a tracedAccessor) AnchorElements(view graph.View, c *rpe.Checked, at *rpe.Atom, gov *plan.Governor) ([]graph.UID, error) {
	if !a.t.on.Load() {
		return a.Accessor.AnchorElements(view, c, at, gov)
	}
	start := time.Now()
	out, err := a.Accessor.AnchorElements(view, c, at, gov)
	a.t.selNs.Add(int64(time.Since(start)))
	a.t.selCalls.Add(1)
	return out, err
}

func (a tracedAccessor) IncidentEdges(view graph.View, node graph.UID, dir plan.Direction, at *rpe.Atom, c *rpe.Checked, gov *plan.Governor) ([]graph.UID, error) {
	if !a.t.on.Load() {
		return a.Accessor.IncidentEdges(view, node, dir, at, c, gov)
	}
	start := time.Now()
	out, err := a.Accessor.IncidentEdges(view, node, dir, at, c, gov)
	a.t.extNs.Add(int64(time.Since(start)))
	a.t.extCalls.Add(1)
	a.t.extEdges.Add(int64(len(out)))
	return out, err
}

// wrapAppend times the WAL append (fsync included) that the store runs
// under its write lock.
func (t *tracer) wrapAppend(appendFn graph.MutationHook) graph.MutationHook {
	return func(ctx context.Context, m *graph.Mutation) error {
		if !t.on.Load() {
			return appendFn(ctx, m)
		}
		start := time.Now()
		err := appendFn(ctx, m)
		d := time.Since(start)
		t.mu.Lock()
		t.appends = append(t.appends, d)
		t.mu.Unlock()
		return err
	}
}

const requestHeader = "X-Perfbench-Request"

// wrapHandler times server.Server.Handler(): read requests by the ID
// the traced transport stamps on them, ingests by path.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{start: time.Now()}
		h.ServeHTTP(w, r)
		s.end = time.Now()
		t.mu.Lock()
		if r.URL.Path == "/v1/ingest" {
			t.ingests = append(t.ingests, s.dur())
		} else if id := r.Header.Get(requestHeader); id != "" {
			t.handlers[id] = s
		}
		t.mu.Unlock()
	})
}

func (t *tracer) takeHandler(id string) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.handlers[id]
	delete(t.handlers, id)
	return s, ok
}

// takeWrites returns and clears the recorded ingest and append spans.
func (t *tracer) takeWrites() (ingests, appends []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ingests, appends = t.ingests, t.appends
	t.ingests, t.appends = nil, nil
	return ingests, appends
}

// reqSpan is one traced read's transport record: the round trip from
// the request leaving the client library to the last response byte.
type reqSpan struct {
	id        string
	transport span
	bytes     int64
}

type reqSpanKey struct{}

func (t *tracer) newRequest(ctx context.Context) (context.Context, *reqSpan) {
	rs := &reqSpan{id: strconv.FormatInt(t.nextID.Add(1), 10)}
	return context.WithValue(ctx, reqSpanKey{}, rs), rs
}

// spanTransport stamps traced requests with their ID and times the
// round trip to the response body's EOF.
type spanTransport struct{ base http.RoundTripper }

func (st spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rs, _ := req.Context().Value(reqSpanKey{}).(*reqSpan)
	if rs == nil {
		return st.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(requestHeader, rs.id)
	rs.transport.start = time.Now()
	resp, err := st.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, rs: rs}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	rs *reqSpan
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rs.bytes += int64(n)
	if err == io.EOF && b.rs.transport.end.IsZero() {
		b.rs.transport.end = time.Now()
	}
	return n, err
}
