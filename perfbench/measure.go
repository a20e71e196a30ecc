package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/plan"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// ds, which it sorts in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(math.Ceil(p/100*float64(len(ds)))) - 1
	return ds[min(max(idx, 0), len(ds)-1)]
}

// batchPercentile is the median, over consecutive batches of n samples,
// of each batch's p-th percentile. A short last batch is dropped unless
// it is the only one. It does not reorder ds.
func batchPercentile(ds []time.Duration, n int, p float64) time.Duration {
	var per []float64
	for i := 0; i < len(ds); i += n {
		if i > 0 && i+n > len(ds) {
			break
		}
		b := append([]time.Duration(nil), ds[i:min(i+n, len(ds))]...)
		per = append(per, float64(percentile(b, p)))
	}
	return time.Duration(median(per))
}

// tailLadder lists the conventional percentiles a tail may be reported
// at, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile with at least ten of
// n samples beyond it, or 0 when n is below 20.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// span is one timed interval on the process's monotonic clock.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTime is the parent's duration minus the part of it its children
// cover. Children are clipped to the parent, and overlapping children
// count once.
func selfTime(parent span, children []span) time.Duration {
	var clipped []span
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur span
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start.After(cur.end):
			covered += cur.dur()
			cur = c
		case c.end.After(cur.end):
			cur.end = c.end
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// digestPaths hashes an answer's pathways by their element lists,
// independent of row order: each list is hashed, the hashes are sorted,
// and the sorted sequence is hashed with its length.
func digestPaths(paths [][]graph.UID) uint64 {
	hs := make([]uint64, len(paths))
	var buf [8]byte
	for i, p := range paths {
		h := fnv.New64a()
		for _, e := range p {
			binary.LittleEndian.PutUint64(buf[:], uint64(e))
			h.Write(buf[:])
		}
		hs[i] = h.Sum64()
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	h := fnv.New64a()
	binary.LittleEndian.PutUint64(buf[:], uint64(len(hs)))
	h.Write(buf[:])
	for _, x := range hs {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// digestResult digests an in-process answer (the reference side).
func digestResult(res *exec.Result) (uint64, error) {
	paths := make([][]graph.UID, len(res.Rows))
	for i, r := range res.Rows {
		if len(r.Values) != 1 {
			return 0, fmt.Errorf("row %d has %d values, want one pathway", i, len(r.Values))
		}
		p, ok := r.Values[0].(plan.Pathway)
		if !ok {
			return 0, fmt.Errorf("row %d is not a pathway", i)
		}
		paths[i] = p.Elems
	}
	return digestPaths(paths), nil
}

// digestClient digests an answer decoded from the wire.
func digestClient(res *client.Result) (uint64, error) {
	paths := make([][]graph.UID, len(res.Rows))
	for i, r := range res.Rows {
		if len(r.Values) != 1 {
			return 0, fmt.Errorf("row %d has %d values, want one pathway", i, len(r.Values))
		}
		p, ok := r.Values[0].(*client.Pathway)
		if !ok {
			return 0, fmt.Errorf("row %d is not a pathway", i)
		}
		paths[i] = p.Elems
	}
	return digestPaths(paths), nil
}

// rtSnap is one reading of the process's CPU, allocation and GC
// counters.
type rtSnap struct {
	at       time.Time
	cpu      time.Duration // user+sys from getrusage
	samples  []metrics.Sample
	heapLive uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSnap {
	s := rtSnap{samples: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		s.samples[i].Name = n
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(s.samples)
	s.at = time.Now()
	s.heapLive = s.samples[7].Value.Uint64()
	return s
}

// rtDelta is what the process did between two readings.
type rtDelta struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	// gcFrac is GC CPU over all CPU the Go runtime used. The runtime
	// updates its CPU classes at the end of each GC cycle, so this
	// covers the cycles that ended inside the interval.
	gcFrac   float64
	pauseP99 time.Duration
	schedP99 time.Duration
}

func (a rtSnap) until(b rtSnap) rtDelta {
	f := func(i int) float64 { return b.samples[i].Value.Float64() - a.samples[i].Value.Float64() }
	u := func(i int) uint64 { return b.samples[i].Value.Uint64() - a.samples[i].Value.Uint64() }
	d := rtDelta{
		wall:       b.at.Sub(a.at),
		cpu:        b.cpu - a.cpu,
		allocBytes: u(0),
		gcCycles:   u(1),
		pauseP99:   histQuantile(a.samples[5].Value.Float64Histogram(), b.samples[5].Value.Float64Histogram(), 0.99),
		schedP99:   histQuantile(a.samples[6].Value.Float64Histogram(), b.samples[6].Value.Float64Histogram(), 0.99),
	}
	if busy := f(3) - f(4); busy > 0 {
		d.gcFrac = f(2) / busy
	}
	return d
}

// histQuantile returns the q-quantile of the samples a runtime
// histogram gained between two readings, as the upper bound of the
// bucket holding it (the lower bound for the open last bucket).
func histQuantile(a, b *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return time.Duration(hi * float64(time.Second))
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs, which it sorts in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
