package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
)

// fakeIngest answers /v1/ingest, stalling the stallAt-th write (from 0)
// for stall.
func fakeIngest(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decoding ingest: %v", err)
		}
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(server.IngestResponse{Applied: len(req.Ops), UIDs: make([]int64, len(req.Ops))})
	}))
}

func testChurn() *churn {
	return &churn{
		rng:      rand.New(rand.NewSource(1)),
		targets:  []graph.UID{7},
		statuses: []string{"up", "down"},
		fields:   map[graph.UID]graph.Fields{7: {"id": int64(7), "status": "up"}},
	}
}

func TestWriterTimesAcksFromScheduledSend(t *testing.T) {
	const stall = 150 * time.Millisecond
	srv := fakeIngest(t, 2, stall)
	defer srv.Close()
	rate := 100.0 // one write due every 10 ms
	start := time.Now().Add(20 * time.Millisecond)
	ws := runWriter(context.Background(), srv.URL, testChurn(), rate, start, start.Add(500*time.Millisecond), nil)

	if ws.attempted != 50 || ws.acked != 50 || ws.failed != 0 {
		t.Fatalf("sent %d, acked %d, failed %d; want all 50 slots acked", ws.attempted, ws.acked, ws.failed)
	}
	// The stalled third write holds the one connection, so the writes due
	// during the stall queue behind it: each is timed from its own due
	// time, not from when it was finally sent.
	stallEnd := 20*time.Millisecond + stall
	for k := 3; k < 10; k++ {
		due := time.Duration(k) * 10 * time.Millisecond
		if min := stallEnd - due; ws.ack[k] < min {
			t.Errorf("write %d acked %v after its due time; the stall it queued behind implies at least %v", k, ws.ack[k], min)
		}
	}
	// The generator kept its schedule through the stall.
	late := append([]time.Duration(nil), ws.lateness...)
	if max := percentile(late, 100); max > 50*time.Millisecond {
		t.Errorf("generator fell %v behind during a server stall; it must not wait for acks", max)
	}
}

func TestWriterLatenessInvalidatesRun(t *testing.T) {
	on := &outcome{valid: true}
	on.checkWriter(nil, writeStats{lateness: []time.Duration{time.Millisecond, 2 * time.Millisecond}}, 0)
	if !on.valid {
		t.Errorf("a writer on schedule invalidated the run: %v", on.problems)
	}
	behind := &outcome{valid: true}
	behind.checkWriter(nil, writeStats{lateness: []time.Duration{time.Millisecond, maxLateness + time.Millisecond}}, 0)
	if behind.valid {
		t.Error("a writer behind its schedule left the run valid")
	}
}

func TestWriterStopsEarlyOnStop(t *testing.T) {
	srv := fakeIngest(t, -1, 0)
	defer srv.Close()
	stop := make(chan struct{})
	start := time.Now()
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	ws := runWriter(context.Background(), srv.URL, testChurn(), 100, start, start.Add(10*time.Second), stop)
	if ws.attempted < 5 || ws.attempted > 20 {
		t.Errorf("stopped after 100ms at 100/s with %d writes sent", ws.attempted)
	}
}

func TestSequenceSendsEveryKindInEqualShares(t *testing.T) {
	spec := Spec{Mix: []string{"r", "b", "b", "b", "b", "b"}, Readers: 2}
	var stmts []*stmt
	for _, shape := range []string{"r", "b"} {
		for i := 0; i < 3; i++ {
			for _, prepared := range []bool{true, false} {
				for _, at := range []bool{false, true} {
					stmts = append(stmts, &stmt{text: shape, shape: shape, prepared: prepared, at: at})
				}
			}
		}
	}
	seq := newSequence(spec, stmts, 42, 0)
	kinds := map[poolKey]int{}
	uses := map[*stmt]int{}
	for i := 0; i < 6*4*3*10; i++ {
		st := seq.next()
		kinds[poolKey{st.shape, st.prepared, st.at}]++
		uses[st]++
	}
	for _, shape := range []string{"r", "b"} {
		perKind := map[string]int{"r": 30, "b": 150}[shape]
		for _, prepared := range []bool{true, false} {
			for _, at := range []bool{false, true} {
				if got := kinds[poolKey{shape, prepared, at}]; got != perKind {
					t.Errorf("shape %s prepared=%v at=%v sent %d times, want %d", shape, prepared, at, got, perKind)
				}
			}
		}
	}
	for st, n := range uses {
		if want := map[string]int{"r": 10, "b": 50}[st.shape]; n != want {
			t.Errorf("a %s statement was sent %d times, want %d: the pool is not cycled evenly", st.shape, n, want)
		}
	}
	// A second reader starts elsewhere in the cycle.
	if first := newSequence(spec, stmts, 42, 1).next(); first.shape != "b" {
		t.Errorf("reader 1 starts on shape %s, want b (half a cycle in)", first.shape)
	}
}
