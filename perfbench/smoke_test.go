package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// smallSpec shrinks a workload to a few seconds of test time: a small
// legacy topology, and anchor pools that fit it.
func smallSpec(t *testing.T, s Spec) Spec {
	t.Helper()
	if s.Fixture == "legacy" {
		s.LegacyServices = 600
		s.Anchors = map[string]Anchors{"reverse-path": {1, 1, false}, "bottom-up": {2, 4, true}}
	}
	return s
}

type metricName struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricName `json:"end_to_end"`
	PerLayer []metricName `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmokeEveryWorkload runs every workload briefly in both modes and
// checks that every answer matched its reference and that the run
// reported exactly the metrics BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every fixture")
	}
	all, err := specs()
	if err != nil {
		t.Fatal(err)
	}
	bf := readBenchmarkFile(t)
	// BENCHMARK.json lists the workloads steady enough for its bounds;
	// workloads.json may define more, run by hand.
	for _, w := range bf.Workloads {
		if _, err := lookupSpec(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, s := range all {
		for _, trace := range []bool{false, true} {
			spec := smallSpec(t, s)
			opt := options{workload: spec.Name, seed: 3, seconds: 0.6, trace: trace, scratch: t.TempDir()}
			o, err := runSpec(context.Background(), spec, opt, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.Name, trace, err)
			}
			if !o.valid || o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s trace=%v: valid=%v failed=%d attempted=%d %v", spec.Name, trace, o.valid, o.failed, o.attempted, o.problems)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
				// Only an open-loop writer reports its lateness; BENCHMARK.json
				// lists no workload with one.
				if spec.WriteRate > 0 {
					want = append(want, metricName{"writer.lateness_p99_ms", "ms"}, metricName{"writer.lateness_max_ms", "ms"})
				}
			}
			if len(o.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json declares %d", spec.Name, trace, len(o.metrics), len(want))
				continue
			}
			for j, m := range o.metrics {
				if m.name != want[j].Name || m.unit != want[j].Unit {
					t.Errorf("%s trace=%v: metric %d is %s (%s), BENCHMARK.json says %s (%s)",
						spec.Name, trace, j, m.name, m.unit, want[j].Name, want[j].Unit)
				}
			}
		}
	}
}

// TestWrongAnswersAreCounted corrupts the references and checks that
// every read is then reported wrong and the run invalid.
func TestWrongAnswersAreCounted(t *testing.T) {
	spec, err := lookupSpec("svc-interactive")
	if err != nil {
		t.Fatal(err)
	}
	spec = smallSpec(t, spec)
	ctx := context.Background()
	e, _, err := setupMany(spec, options{seed: 5, scratch: t.TempDir()}, 1, 0, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer e.shutdown()
	rs, err := prepareRun(ctx, e, options{seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeReaders(rs)
	for _, st := range e.stmts {
		st.ref++
	}
	out := runReaders(ctx, e, rs, time.Now().Add(200*time.Millisecond), false)[0]
	if out.attempted == 0 || out.wrong != out.attempted {
		t.Fatalf("%d of %d reads reported wrong against corrupted references", out.wrong, out.attempted)
	}
	o := &outcome{valid: true}
	o.account("reads", out.opStats)
	if o.valid || o.failed != out.attempted {
		t.Errorf("wrong answers left the run valid=%v with failed=%d", o.valid, o.failed)
	}
}
