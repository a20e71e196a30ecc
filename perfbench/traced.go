package main

import (
	"context"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
)

// directRead is one statement executed in-process through core.DB.
type directRead struct {
	prep, exec time.Duration
	alloc      uint64
	acc        accessorTotals
	m          plan.Metrics
}

// execDirect sends st through core.DB.Prepare and
// core.Prepared.ExecLimits with the accessor spans on, checking the
// answer like a served one.
func execDirect(ctx context.Context, e *env, st *stmt, stats *opStats) (directRead, bool) {
	var d directRead
	stats.attempted++
	start := time.Now()
	p, err := e.db.Prepare(st.text)
	d.prep = time.Since(start)
	if err != nil {
		stats.failed++
		stats.note("direct prepare %q: %v", st.text, err)
		return d, false
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	e.tr.takeAccessor()
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	start = time.Now()
	res, err := p.ExecLimits(ctx, exec.Limits{})
	d.exec = time.Since(start)
	metrics.Read(allocs)
	d.alloc = allocs[0].Value.Uint64() - a0
	d.acc = e.tr.takeAccessor()
	if err != nil {
		stats.failed++
		stats.note("direct exec %q: %v", st.text, err)
		return d, false
	}
	if dg, derr := digestResult(res); derr != nil || dg != st.ref {
		stats.wrong++
		stats.note("direct: wrong answer to %q", st.text)
		return d, false
	}
	d.m = res.Metrics
	return d, true
}

// mixQPS is one closed-loop reader's throughput under the workload's
// mix: the inverse of the mean latency, with each shape's mean weighted
// by its share of the mix cycle, so blocks that happened to draw a
// different number of slow shapes still compare.
func mixQPS(mix []string, blocks ...readStats) float64 {
	var perRequest float64
	for _, shape := range shapes(mix) {
		var sum time.Duration
		var n int
		for _, b := range blocks {
			sum += b.shapeSum[shape]
			n += b.shapeN[shape]
		}
		if n == 0 {
			return 0
		}
		var share float64
		for _, s := range mix {
			if s == shape {
				share++
			}
		}
		perRequest += share / float64(len(mix)) * (sum.Seconds() / float64(n))
	}
	if perRequest == 0 {
		return 0
	}
	return 1 / perRequest
}

// runTraced is the per-layer run: one set-up with the tracing wrappers,
// then one reader through four blocks — untraced, traced, traced,
// untraced, each half the window long — so warm-up order cannot pose
// as tracing overhead. In the traced blocks every statement also runs
// directly through core.DB. On svc-rw the writer runs through all four
// blocks; on the read-only workloads the idle write probe follows them,
// traced.
func runTraced(ctx context.Context, spec Spec, opt options, o *outcome, log io.Writer) error {
	tr := newTracer()
	e, _, err := setupMany(spec, opt, 1, 0, tr, log)
	if err != nil {
		return err
	}
	defer e.shutdown()
	readers, err := prepareRun(ctx, e, opt, 1)
	if err != nil {
		return err
	}
	defer closeReaders(readers)

	window := time.Duration(opt.seconds * float64(time.Second))
	counter := func(name string) int64 { return e.reg.Counter(name).Value() }
	walStart := walIndex(e)
	appends0, fsyncs0 := counter("wal.appends"), counter("wal.fsyncs")
	before := readRuntime()
	var ws writeStats
	wdone := make(chan struct{})
	stopWriter := make(chan struct{})
	if spec.WriteRate > 0 {
		go func() {
			defer close(wdone)
			// The blocks overrun the window by at most one request each;
			// stopWriter ends the schedule when they are done.
			ws = runWriter(ctx, e.base, e.churn, spec.WriteRate, before.at, before.at.Add(3*window), stopWriter)
		}()
	} else {
		close(wdone)
	}
	var blocks [4]readStats
	var hits, misses int64
	for i, traced := range []bool{false, true, true, false} {
		h0, m0 := counter("server.plan_cache_hits"), counter("server.plan_cache_misses")
		tr.on.Store(traced)
		blocks[i] = runReaders(ctx, e, readers, time.Now().Add(window/2), traced)[0]
		tr.on.Store(false)
		if traced {
			hits += counter("server.plan_cache_hits") - h0
			misses += counter("server.plan_cache_misses") - m0
		}
	}
	after := readRuntime()
	close(stopWriter)
	<-wdone
	ingests, appends := tr.takeWrites()
	if spec.WriteRate == 0 {
		// The reader's connection stays open, so the probe is the second;
		// the collection settles the reads' garbage first.
		runtime.GC()
		tr.on.Store(true)
		ws = runProbe(ctx, e.base, e.churn, probeWrites)
		tr.on.Store(false)
		ingests, appends = tr.takeWrites()
	}
	// The WAL counters span whichever phase wrote: the blocks on a
	// workload with a writer, the probe on a read-only one.
	appends1, fsyncs1 := counter("wal.appends"), counter("wal.fsyncs")

	var reads, direct opStats
	for _, b := range blocks {
		reads.add(b.opStats)
		direct.add(b.direct)
	}
	o.account("reads", reads)
	o.account("direct executions", direct)
	o.account("writes", ws.opStats)
	o.checkWriter(e.db.WAL(), ws, walStart)

	traced := append(append([]tracedRead(nil), blocks[1].traced...), blocks[2].traced...)
	untracedQPS := mixQPS(spec.Mix, blocks[0], blocks[3])
	tracedQPS := mixQPS(spec.Mix, blocks[1], blocks[2])
	lay := layerFigures(traced)
	o.printf("  blocks U,T,T,U: %d %d %d %d reads; mix-weighted untraced %.1f/s traced %.1f/s; %d traced reads",
		blocks[0].completed, blocks[1].completed, blocks[2].completed, blocks[3].completed,
		untracedQPS, tracedQPS, len(traced))

	d := before.until(after)
	untracedLat := append(append([]time.Duration(nil), blocks[0].lat...), blocks[3].lat...)
	o.add("query_p50_ms", "ms", ms(batchPercentile(untracedLat, latBatch, 50)))
	o.add("client.self_ms", "ms", lay.clientSelf)
	o.add("client.response_kb", "kB", lay.responseKB)
	o.add("server.handler_ms", "ms", lay.handler)
	o.add("server.self_ms", "ms", lay.serverSelf)
	o.add("server.plan_cache_hit_ratio", "ratio", frac(int(hits), int(hits+misses)))
	o.add("core.prepare_ms", "ms", lay.prepare)
	o.add("core.exec_ms", "ms", lay.exec)
	o.add("core.exec_alloc_kb", "kB", lay.execAllocKB)
	o.add("plan.self_ms", "ms", lay.planSelf)
	o.add("plan.partials_per_query", "count", lay.partials)
	o.add("plan.edges_scanned_per_query", "count", lay.edges)
	o.add("plan.paths_per_query", "count", lay.paths)
	o.add("plan.accept_ratio", "ratio", lay.accept)
	o.add("accessor.select_ms", "ms", lay.selectMS)
	o.add("accessor.select_calls", "count", lay.selectCalls)
	o.add("accessor.extend_ms", "ms", lay.extendMS)
	o.add("accessor.extend_calls", "count", lay.extendCalls)
	o.add("accessor.edges_per_extend", "count", lay.edgesPerExtend)

	var appendTotal, ingestTotal time.Duration
	for _, a := range appends {
		appendTotal += a
	}
	for _, g := range ingests {
		ingestTotal += g
	}
	fsyncsPerAppend := 0.0
	if n := appends1 - appends0; n > 0 {
		fsyncsPerAppend = float64(fsyncs1-fsyncs0) / float64(n)
	}
	o.add("write_ack_p50_ms", "ms", ms(batchPercentile(ws.ack, latBatch, 50)))
	o.add("write_ack_tail_ms", "ms", ms(batchPercentile(ws.ack, latBatch, writeTailPct)))
	o.add("wal.append_p50_ms", "ms", ms(percentile(appends, 50)))
	o.add("wal.append_p99_ms", "ms", ms(percentile(appends, 99)))
	o.add("wal.fsyncs_per_append", "ratio", fsyncsPerAppend)
	o.add("graph.write_wait_ms", "ms", ms(ingestTotal-appendTotal)/float64(max(len(ingests), 1)))
	o.add("runtime.gc_pause_p99_ms", "ms", ms(d.pauseP99))
	o.add("runtime.sched_latency_p99_ms", "ms", ms(d.schedP99))
	o.add("runtime.gc_cycles_per_s", "1/s", float64(d.gcCycles)/d.wall.Seconds())
	o.add("trace.overhead_frac", "ratio", 1-frac64(tracedQPS, untracedQPS))
	o.add("trace.unattributed_frac", "ratio", lay.unattributed)
	o.add("failed_frac", "ratio", frac(o.failed, o.attempted))
	// Only an open-loop writer has a schedule to fall behind; the idle
	// probe sends back to back.
	if spec.WriteRate > 0 {
		late := append([]time.Duration(nil), ws.lateness...)
		o.add("writer.lateness_p99_ms", "ms", ms(percentile(late, 99)))
		o.add("writer.lateness_max_ms", "ms", ms(percentile(late, 100)))
	}

	if lay.clientMS > 0 {
		share := func(x float64) float64 { return 100 * x / lay.clientMS }
		o.printf("  read time %.3f ms: client %.1f%%, server %.1f%%, core/plan %.1f%%, accessor %.1f%%, unattributed %.1f%%",
			lay.clientMS, share(lay.clientSelf), share(lay.serverSelf), share(lay.planSelf),
			share(lay.selectMS+lay.extendMS), 100*lay.unattributed)
	}
	if ingestTotal > 0 {
		o.printf("  ingest handler time %.3f ms: wal append %.1f%%, graph write wait and apply %.1f%%",
			ms(ingestTotal)/float64(len(ingests)), 100*float64(appendTotal)/float64(ingestTotal),
			100*float64(ingestTotal-appendTotal)/float64(ingestTotal))
	}
	return nil
}

// layers is the per-layer split of the traced reads, in milliseconds
// per query unless named otherwise.
type layers struct {
	clientMS, clientSelf, responseKB, handler, serverSelf, unattributed float64
	prepare, exec, execAllocKB, planSelf                                float64
	partials, edges, paths, accept                                      float64
	selectMS, selectCalls, extendMS, extendCalls, edgesPerExtend        float64
}

// layerFigures splits the traced reads' time. Client self time is the
// client call minus the transport round trip; the transport's own time
// (loopback and net/http, no layer of this repository) is unattributed;
// server self time is the handler minus the same statement's direct
// execution; plan self time is that execution minus its accessor calls.
// The four parts and the accessor time sum to the client call.
func layerFigures(reads []tracedRead) layers {
	var l layers
	if len(reads) == 0 {
		return l
	}
	n := float64(len(reads))
	var transportSelf, consumed, rejected, extCalls, edges float64
	for _, r := range reads {
		d := r.direct
		l.clientMS += ms(r.client.dur())
		l.clientSelf += ms(selfTime(r.client, []span{r.transport}))
		transportSelf += ms(selfTime(r.transport, []span{r.handle}))
		l.handler += ms(r.handle.dur())
		l.serverSelf += ms(r.handle.dur() - d.exec)
		l.responseKB += float64(r.bytes) / 1024
		l.prepare += ms(d.prep)
		l.exec += ms(d.exec)
		l.execAllocKB += float64(d.alloc) / 1024
		l.planSelf += ms(d.exec - d.acc.sel - d.acc.ext)
		l.partials += float64(d.m.PartialsExplored)
		l.edges += float64(d.m.EdgesScanned)
		l.paths += float64(d.m.PathsEmitted)
		consumed += float64(d.m.ElementsConsumed)
		rejected += float64(d.m.ElementsRejected)
		l.selectMS += ms(d.acc.sel)
		l.extendMS += ms(d.acc.ext)
		l.selectCalls += float64(d.acc.selCalls)
		extCalls += float64(d.acc.extCalls)
		edges += float64(d.acc.edges)
	}
	l.unattributed = transportSelf / l.clientMS
	for _, x := range []*float64{&l.clientMS, &l.clientSelf, &l.handler, &l.serverSelf, &l.responseKB,
		&l.prepare, &l.exec, &l.execAllocKB, &l.planSelf, &l.partials, &l.edges, &l.paths,
		&l.selectMS, &l.extendMS, &l.selectCalls} {
		*x /= n
	}
	l.extendCalls = extCalls / n
	l.accept = frac64(consumed, consumed+rejected)
	l.edgesPerExtend = frac64(edges, extCalls)
	return l
}

func frac64(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
