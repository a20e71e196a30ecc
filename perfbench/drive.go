package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/exec"
	"repro/internal/server"
)

// maxErrNotes bounds how many failure messages a run keeps for its
// report.
const maxErrNotes = 5

// opStats counts one loop's operations and keeps its first failures.
type opStats struct {
	attempted, failed, wrong int
	notes                    []string
}

func (o *opStats) note(format string, args ...any) {
	if len(o.notes) < maxErrNotes {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

func (o *opStats) add(p opStats) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.wrong += p.wrong
	for _, n := range p.notes {
		o.note("%s", n)
	}
}

// readStats is one reader's record of a window.
type readStats struct {
	opStats
	lat       []time.Duration // client-observed, reads completed inside the window
	completed int
	last      time.Time // when the last read completed inside the window
	// shapeSum and shapeN total the completed reads' latency per shape.
	shapeSum map[string]time.Duration
	shapeN   map[string]int
	traced   []tracedRead
	direct   opStats // the traced run's direct executions
}

// tracedRead is one traced read: the client call, the transport round
// trip inside it and the server handler inside that, plus the same
// statement's direct execution through core.DB.
type tracedRead struct {
	client, transport, handle span
	bytes                     int64
	direct                    directRead
}

// reader is one closed-loop client: it sends its next request the moment
// the previous answer lands.
type reader struct {
	c       *benchClient
	seq     *sequence
	handles map[*stmt]*client.Stmt
}

// newReader opens the reader's connection and fetches a handle for every
// prepared statement (plan-cache hits after warm-up).
func newReader(ctx context.Context, e *env, seed int64, idx int) (*reader, error) {
	r := &reader{c: newClient(e.base, e.tr), seq: newSequence(e.spec, e.stmts, seed, idx), handles: map[*stmt]*client.Stmt{}}
	for _, st := range e.stmts {
		if !st.prepared {
			continue
		}
		h, err := r.c.Prepare(ctx, st.text)
		if err != nil {
			r.c.close()
			return nil, err
		}
		r.handles[st] = h
	}
	return r, nil
}

// run sends requests until end, checking every answer against its
// reference. A traced run also executes each statement through core.DB
// directly, alternately before and after the request so neither side
// always finds the caches the other warmed; the tracer must be on.
func (r *reader) run(ctx context.Context, e *env, end time.Time, traced bool, out *readStats) {
	out.shapeSum, out.shapeN = map[string]time.Duration{}, map[string]int{}
	for i := 0; time.Now().Before(end); i++ {
		st := r.seq.next()
		var rec tracedRead
		directOK := false
		if traced && i%2 == 1 {
			rec.direct, directOK = execDirect(ctx, e, st, &out.direct)
		}
		rctx := ctx
		var rs *reqSpan
		if traced {
			rctx, rs = e.tr.newRequest(ctx)
		}
		start := time.Now()
		var res *client.Result
		var err error
		if st.prepared {
			res, err = r.handles[st].Exec(rctx, nil)
		} else {
			res, err = r.c.Query(rctx, st.text, nil)
		}
		done := time.Now()
		out.attempted++
		if err != nil {
			out.failed++
			out.note("read %q: %v", st.text, err)
			continue
		}
		if !done.After(end) {
			out.lat = append(out.lat, done.Sub(start))
			out.completed++
			out.last = done
			out.shapeSum[st.shape] += done.Sub(start)
			out.shapeN[st.shape]++
		}
		if d, derr := digestClient(res); derr != nil || d != st.ref {
			out.wrong++
			out.note("wrong answer to %q: %d rows, digest %x, reference %x (%v)", st.text, len(res.Rows), d, st.ref, derr)
		}
		if !traced {
			continue
		}
		if i%2 == 0 {
			rec.direct, directOK = execDirect(ctx, e, st, &out.direct)
		}
		h, ok := e.tr.takeHandler(rs.id)
		if ok && directOK && !rs.transport.end.IsZero() {
			rec.client, rec.transport, rec.handle, rec.bytes = span{start, done}, rs.transport, h, rs.bytes
			out.traced = append(out.traced, rec)
		}
	}
}

// runReaders runs every reader until end and returns their records.
func runReaders(ctx context.Context, e *env, readers []*reader, end time.Time, traced bool) []readStats {
	out := make([]readStats, len(readers))
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r *reader) {
			defer wg.Done()
			r.run(ctx, e, end, traced, &out[i])
		}(i, r)
	}
	wg.Wait()
	return out
}

// writeStats is the open-loop writer's record.
type writeStats struct {
	opStats
	ack      []time.Duration // scheduled send time to ack
	lateness []time.Duration // generator's dispatch delay past each scheduled time
	acked    int
	ops      int         // acked mutations
	ackAt    []time.Time // when each ack arrived
}

// runWriter is the open-loop writer: one write is due every 1/rate
// seconds from start until end or stop, whichever comes first. A
// generator dispatches each write at its due time into a queue that a
// serial sender drains over one connection, so a stalled server delays
// later writes without slowing the schedule, and each ack is timed from
// its due time. The generator records how late it dispatched; the run
// is invalid when that exceeds maxLateness.
func runWriter(ctx context.Context, base string, ch *churn, rate float64, start, end time.Time, stop <-chan struct{}) writeStats {
	slots := int(math.Ceil(end.Sub(start).Seconds() * rate))
	type job struct{ due time.Time }
	// Sized to the number of sends, so the generator never blocks.
	q := make(chan job, slots)
	c := newClient(base, nil)
	defer c.close()
	var ws writeStats
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for j := range q {
			op := ch.next()
			ws.attempted++
			resp, err := c.Ingest(ctx, []server.IngestOp{op})
			now := time.Now()
			if err != nil {
				ws.failed++
				ws.note("write %s %d: %v", op.Op, op.UID, err)
				continue
			}
			ch.acked(op, resp.UIDs)
			ws.acked++
			ws.ops += resp.Applied
			ws.ack = append(ws.ack, now.Sub(j.due))
			ws.ackAt = append(ws.ackAt, now)
		}
	}()
	var lateness []time.Duration
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
generate:
	for k := 0; k < slots; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-stop:
				break generate
			}
		}
		lateness = append(lateness, time.Since(due))
		q <- job{due: due}
	}
	close(q)
	<-sent
	ws.lateness = lateness
	return ws
}

// runProbe is the read-only workloads' write probe: n single-op writes
// sent back to back over one connection with no reads in flight, each
// timed from its send to its ack. It prices the write path alone; it has
// no schedule, so an idle machine's timer wake-ups do not enter it.
func runProbe(ctx context.Context, base string, ch *churn, n int) writeStats {
	c := newClient(base, nil)
	defer c.close()
	var ws writeStats
	for i := 0; i < n; i++ {
		op := ch.next()
		ws.attempted++
		start := time.Now()
		resp, err := c.Ingest(ctx, []server.IngestOp{op})
		if err != nil {
			ws.failed++
			ws.note("probe write %s %d: %v", op.Op, op.UID, err)
			continue
		}
		ch.acked(op, resp.UIDs)
		ws.acked++
		ws.ops += resp.Applied
		ws.ack = append(ws.ack, time.Since(start))
	}
	return ws
}

// maxLateness is how far behind its schedule the writer's generator may
// fall before the run is invalid: the offered rate is then no longer the
// stated one.
const maxLateness = 100 * time.Millisecond

// computeReferences digests every statement's answer in-process through
// core.DB, on two workers, outside every timed window.
func computeReferences(ctx context.Context, e *env) error {
	jobs := make(chan *stmt)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range jobs {
				if err := referenceOf(ctx, e, st); err != nil {
					errs <- err
					for range jobs {
					}
					return
				}
			}
		}()
	}
	for _, st := range e.stmts {
		jobs <- st
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}

func referenceOf(ctx context.Context, e *env, st *stmt) error {
	p, err := e.db.Prepare(st.text)
	if err != nil {
		return fmt.Errorf("reference %q: %w", st.text, err)
	}
	res, err := p.ExecLimits(ctx, exec.Limits{})
	if err != nil {
		return fmt.Errorf("reference %q: %w", st.text, err)
	}
	if st.ref, err = digestResult(res); err != nil {
		return fmt.Errorf("reference %q: %w", st.text, err)
	}
	return nil
}
