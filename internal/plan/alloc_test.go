package plan_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/temporal"
	"repro/internal/workload"
)

// TestReversePathAllocs guards the search's allocation discipline on a
// Table 2 Reverse-path query over a small legacy fixture with churn
// history: an evaluation allocates per emitted pathway, not per explored
// partial or per consumed element. A per-consume satisfaction map, a
// per-step element-slice copy or a per-pathway key string would each add
// hundreds of allocations here.
func TestReversePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	sch, err := workload.LegacySchema(false)
	if err != nil {
		t.Fatal(err)
	}
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(sch, clock)
	cfg := workload.DefaultLegacyConfig()
	cfg.Services = 150
	l, err := workload.BuildLegacy(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.ApplyLegacyChurn(st, l, clock, workload.DefaultLegacyChurn(l)); err != nil {
		t.Fatal(err)
	}
	c, err := rpe.CheckString(workload.NewLegacySampler(l, 2002).ReversePath(), st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c, st.Stats())
	if err != nil {
		t.Fatal(err)
	}
	eng := plan.NewEngine(relational.New(st))
	view := graph.CurrentView(st)
	set, m, err := eng.EvalMetered(view, p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.Eval(view, p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d paths, %s: %.0f allocs per evaluation", set.Len(), m, allocs)
	if set.Len() < 100 || m.PartialsExplored < 2*set.Len() {
		t.Fatalf("fixture too small to guard anything: %d paths, %d partials", set.Len(), m.PartialsExplored)
	}
	// Measured at 2,175: two per emitted pathway (its elements and its
	// validity) plus the backend's adjacency probes and the evaluation's
	// tables. The ceiling leaves a fifth for runtime and map-layout drift;
	// any per-partial or per-consume allocation would add over 1,800.
	const ceiling = 2600
	if allocs > ceiling {
		t.Errorf("%.0f allocs per evaluation, ceiling %d", allocs, ceiling)
	}
}
