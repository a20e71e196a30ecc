package main

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/plan"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{99, 75},
		{20, 50},
		{19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than 10 samples beyond", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for p, want := range map[float64]time.Duration{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(ds, p); got != want*time.Millisecond {
			t.Errorf("p%g = %v, want %v", p, got, want*time.Millisecond)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestBatchPercentileTakesTheMedianBatch(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		var out []time.Duration
		for _, x := range xs {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return out
	}
	// Three batches of four whose maxima are 9, 4 and 5: the median batch
	// wins, and a short fourth batch is dropped.
	ds := ms(1, 2, 9, 3, 4, 1, 1, 1, 2, 5, 2, 2, 100)
	orig := append([]time.Duration(nil), ds...)
	if got := batchPercentile(ds, 4, 100); got != 5*time.Millisecond {
		t.Errorf("batch median of maxima = %v, want 5ms", got)
	}
	for i := range ds {
		if ds[i] != orig[i] {
			t.Fatal("batchPercentile reordered its input")
		}
	}
	// Fewer samples than one batch: the single short batch counts.
	if got := batchPercentile(ms(3, 1, 2), 4, 50); got != 2*time.Millisecond {
		t.Errorf("single short batch p50 = %v, want 2ms", got)
	}
}

func TestSelfTimeSubtractsCoveredIntervalsOnce(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{at(0), at(100)}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{at(10), at(30)}}, 80},
		{"disjoint children", []span{{at(10), at(30)}, {at(50), at(60)}}, 70},
		{"overlapping children count once", []span{{at(10), at(40)}, {at(30), at(50)}}, 60},
		{"child inside child", []span{{at(10), at(50)}, {at(20), at(30)}}, 60},
		{"unsorted children", []span{{at(50), at(60)}, {at(10), at(30)}}, 70},
		{"child clipped to parent", []span{{at(-20), at(10)}, {at(90), at(130)}}, 80},
		{"child outside parent", []span{{at(120), at(130)}}, 100},
		{"touching children", []span{{at(10), at(20)}, {at(20), at(30)}}, 80},
	} {
		if got := selfTime(parent, c.children); got != c.want*time.Millisecond {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want*time.Millisecond)
		}
	}
}

func TestDigestIgnoresRowOrderNotElementOrder(t *testing.T) {
	a := [][]graph.UID{{1, 2, 3}, {4, 5}, {6}}
	b := [][]graph.UID{{6}, {1, 2, 3}, {4, 5}}
	if digestPaths(a) != digestPaths(b) {
		t.Error("row order changed the digest")
	}
	if digestPaths(a) == digestPaths([][]graph.UID{{3, 2, 1}, {4, 5}, {6}}) {
		t.Error("element order did not change the digest")
	}
	if digestPaths(a) == digestPaths(a[:2]) {
		t.Error("a missing pathway did not change the digest")
	}
	if digestPaths([][]graph.UID{{1, 2}, {3}}) == digestPaths([][]graph.UID{{1}, {2, 3}}) {
		t.Error("regrouping the same elements did not change the digest")
	}
}

// TestDigestRejectsRowsThatAreNotOnePathway checks that a malformed
// answer is an error, counted as a wrong answer, rather than a panic.
func TestDigestRejectsRowsThatAreNotOnePathway(t *testing.T) {
	wirePath := func(e ...graph.UID) *client.Pathway {
		return &client.Pathway{Pathway: plan.Pathway{Elems: e}}
	}
	for name, vals := range map[string][]any{
		"no values":  {},
		"two values": {wirePath(1), wirePath(2)},
		"not a path": {int64(7)},
	} {
		if _, err := digestClient(&client.Result{Rows: []client.Row{{Values: vals}}}); err == nil {
			t.Errorf("digestClient accepted a row with %s", name)
		}
	}
	if _, err := digestClient(&client.Result{Rows: []client.Row{{Values: []any{wirePath(1)}}}}); err != nil {
		t.Errorf("digestClient rejected a single pathway: %v", err)
	}
	for name, vals := range map[string][]any{
		"no values":  {},
		"not a path": {int64(7)},
	} {
		if _, err := digestResult(&exec.Result{Rows: []exec.Row{{Values: vals}}}); err == nil {
			t.Errorf("digestResult accepted a row with %s", name)
		}
	}
	if _, err := digestResult(&exec.Result{Rows: []exec.Row{{Values: []any{plan.Pathway{Elems: []graph.UID{1}}}}}}); err != nil {
		t.Errorf("digestResult rejected a single pathway: %v", err)
	}
}

func TestMixQPSWeightsShapesByTheirMixShare(t *testing.T) {
	mix := []string{"slow", "fast", "fast", "fast"}
	block := func(slowN, fastN int) readStats {
		return readStats{
			shapeSum: map[string]time.Duration{"slow": time.Duration(slowN) * 100 * time.Millisecond, "fast": time.Duration(fastN) * 10 * time.Millisecond},
			shapeN:   map[string]int{"slow": slowN, "fast": fastN},
		}
	}
	// One slow (100 ms) per three fast (10 ms): 32.5 ms per request.
	want := 1 / 0.0325
	// Blocks that drew different shares of the slow shape still agree.
	for _, b := range []readStats{block(1, 3), block(5, 3), block(1, 30)} {
		if got := mixQPS(mix, b); got < want*0.999 || got > want*1.001 {
			t.Errorf("mixQPS = %.3f, want %.3f", got, want)
		}
	}
	if got := mixQPS(mix, block(0, 3)); got != 0 {
		t.Errorf("a block without the slow shape gave %.3f, want 0", got)
	}
}
