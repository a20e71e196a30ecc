package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/wal"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is one run's result: the metrics of its mode plus the
// correctness accounting every mode shares.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	valid     bool     // no wrong answer, WAL in step with acks, writer on schedule
	problems  []string // why valid is false
	lines     []string // human-readable report
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

func (o *outcome) problem(format string, args ...any) {
	o.valid = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// account folds a loop's operations into the run's totals; every
// failure and wrong answer invalidates the run.
func (o *outcome) account(what string, s opStats) {
	o.attempted += s.attempted
	o.failed += s.failed + s.wrong
	if s.failed+s.wrong > 0 {
		o.problem("%s: %d failed, %d wrong of %d", what, s.failed, s.wrong, s.attempted)
		for _, n := range s.notes {
			o.problems = append(o.problems, "  "+n)
		}
	}
}

// checkWriter invalidates the run when the writer's generator fell
// behind its schedule or the WAL index moved by other than the acked
// mutations.
func (o *outcome) checkWriter(log *wal.Manager, ws writeStats, walStart uint64) {
	late := append([]time.Duration(nil), ws.lateness...)
	maxLate := percentile(late, 100)
	o.printf("  writer: %d sent, %d acked (%d mutations), lateness p99 %.3f ms max %.3f ms",
		ws.attempted, ws.acked, ws.ops, ms(percentile(late, 99)), ms(maxLate))
	if maxLate > maxLateness {
		o.problem("writer fell %.1f ms behind its schedule (limit %v): the offered rate was not met", ms(maxLate), maxLateness)
	}
	if log != nil {
		moved := log.NextIndex() - walStart
		o.printf("  wal: index advanced %d for %d acked mutations", moved, ws.ops)
		if moved != uint64(ws.ops) {
			o.problem("WAL index advanced %d, acked mutations %d", moved, ws.ops)
		}
	}
}

func walIndex(e *env) uint64 {
	if e.db.WAL() == nil {
		return 0
	}
	return e.db.WAL().NextIndex()
}

// runBenchmark performs one run of the named workload.
func runBenchmark(ctx context.Context, opt options, log io.Writer) (*outcome, error) {
	spec, err := lookupSpec(opt.workload)
	if err != nil {
		return nil, err
	}
	return runSpec(ctx, spec, opt, log)
}

// runSpec performs one run of the given workload.
func runSpec(ctx context.Context, spec Spec, opt options, log io.Writer) (*outcome, error) {
	var err error
	o := &outcome{valid: true}
	o.printf("perfbench %s seed=%d seconds=%g trace=%v", spec.Name, opt.seed, opt.seconds, opt.trace)
	o.printf("  %s; backend %s; %d closed-loop reader(s); writes %s; flush: %s",
		spec.Scale, spec.Backend, spec.Readers, writeMode(spec), spec.FlushPolicy)
	if opt.trace {
		err = runTraced(ctx, spec, opt, o, log)
	} else {
		err = runUntraced(ctx, spec, opt, o, log)
	}
	return o, err
}

func writeMode(spec Spec) string {
	if spec.WriteRate > 0 {
		return fmt.Sprintf("open-loop at %g/s during the reads", spec.WriteRate)
	}
	return fmt.Sprintf("none during the reads; the traced run's idle probe sends %d back to back after them", probeWrites)
}

// setupMany sets the workload up n times, and then again while the
// set-ups total less than budget and number fewer than maxSetups. It
// keeps the last and returns each set-up's duration. A WAL workload's
// fixture is loaded into its log once, untimed, and each set-up recovers
// that log. Earlier set-ups are torn down and collected outside the
// timing.
func setupMany(spec Spec, opt options, n int, budget time.Duration, tr *tracer, log io.Writer) (*env, []float64, error) {
	var img *walImage
	if spec.WAL {
		var err error
		if img, err = loadWAL(spec, opt.scratch); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	var e *env
	var stmts []*stmt
	var times []float64
	var total time.Duration
	for i := 0; i < n || (total < budget && i < maxSetups); i++ {
		if e != nil {
			err := e.close()
			e = nil
			if err != nil {
				img.remove()
				return nil, nil, err
			}
			runtime.GC()
		}
		var took time.Duration
		var err error
		if e, took, err = setup(spec, opt.seed, img, tr, stmts); err != nil {
			img.remove()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		stmts = e.stmts
		total += took
		times = append(times, took.Seconds())
		fmt.Fprintf(log, "perfbench: set-up %d took %.3fs\n", i+1, times[i])
	}
	if img != nil {
		e.walDir = img.dir
	}
	return e, times, nil
}

// prepareRun computes the reference answers and opens the readers.
func prepareRun(ctx context.Context, e *env, opt options, readers int) ([]*reader, error) {
	if err := computeReferences(ctx, e); err != nil {
		return nil, err
	}
	rs := make([]*reader, readers)
	for i := range rs {
		r, err := newReader(ctx, e, opt.seed, i)
		if err != nil {
			closeReaders(rs[:i])
			return nil, err
		}
		rs[i] = r
	}
	return rs, nil
}

func closeReaders(rs []*reader) {
	for _, r := range rs {
		r.c.close()
	}
}

// runUntraced is the end-to-end run: several set-ups, then one measured
// window with no wrapper installed. Read-only workloads send no writes.
func runUntraced(ctx context.Context, spec Spec, opt options, o *outcome, log io.Writer) error {
	e, setups, err := setupMany(spec, opt, minSetups, setupBudget, nil, log)
	if err != nil {
		return err
	}
	defer e.shutdown()
	runtime.GC()
	heap := readRuntime().heapLive

	readers, err := prepareRun(ctx, e, opt, spec.Readers)
	if err != nil {
		return err
	}
	defer closeReaders(readers)

	window := time.Duration(opt.seconds * float64(time.Second))
	walStart := walIndex(e)
	before := readRuntime()
	start := before.at
	end := start.Add(window)
	var ws writeStats
	wdone := make(chan struct{})
	if spec.WriteRate > 0 {
		go func() {
			defer close(wdone)
			ws = runWriter(ctx, e.base, e.churn, spec.WriteRate, start, end, nil)
		}()
	} else {
		close(wdone)
	}
	var after rtSnap
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		time.Sleep(time.Until(end))
		after = readRuntime()
	}()
	reads := runReaders(ctx, e, readers, end, false)
	<-wdone
	<-snapped

	// Each closed loop's throughput is its completions over the time up
	// to its last completion, so the request cut off at the window's end
	// does not make the figure jump by one slow request.
	var rs readStats
	var qps float64
	for _, r := range reads {
		rs.opStats.add(r.opStats)
		rs.lat = append(rs.lat, r.lat...)
		rs.completed += r.completed
		if r.completed > 0 {
			qps += float64(r.completed) / r.last.Sub(start).Seconds()
		}
	}
	ops := rs.completed
	for _, t := range ws.ackAt {
		if !t.After(end) {
			ops++
		}
	}
	o.account("reads", rs.opStats)
	o.account("writes", ws.opStats)
	o.checkWriter(e.db.WAL(), ws, walStart)

	d := before.until(after)
	o.printf("  set-ups: %s s; reads: %d attempted, %d completed in %.2fs; query tail at p%g over batches of %d (the ten-beyond rule gives p%g for a batch)",
		fmtFloats(setups), rs.attempted, rs.completed, d.wall.Seconds(), spec.QueryTailPct,
		latBatch, tailPercentile(min(latBatch, len(rs.lat))))
	o.printf("  failed_frac %.6f (%d of %d ops)", frac(o.failed, o.attempted), o.failed, o.attempted)

	// Latency percentiles are medians over batches of reads in completion
	// order, so a burst of slow scheduling on a shared machine moves one
	// batch's figure rather than the run's. The median is reported by the
	// traced run (see the p50 note in workloads.json) and only shown here.
	o.printf("  query p50 %.3f ms", ms(batchPercentile(rs.lat, latBatch, 50)))

	o.add("setup_s", "s", median(setups))
	o.add("heap_mb", "MB", float64(heap)/(1<<20))
	o.add("query_qps", "1/s", qps)
	o.add("query_tail_ms", "ms", ms(batchPercentile(rs.lat, latBatch, spec.QueryTailPct)))
	o.add("cpu_ms_per_op", "ms", ms(d.cpu)/float64(max(ops, 1)))
	o.add("alloc_kb_per_op", "kB", float64(d.allocBytes)/1024/float64(max(ops, 1)))
	o.add("gc_cpu_frac", "ratio", d.gcFrac)
	return nil
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
