package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

func (f *fixture) analyze(t *testing.T, src string) *query.Analyzed {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	a, err := query.Analyze(q, f.st.Schema())
	if err != nil {
		t.Fatalf("analyze %q: %v", src, err)
	}
	return a
}

// routedFixture routes the Phys variable of the §3.4 join to a
// chaos-wrapped relational engine over a second copy of the demo
// topology, returning the fixture, the chaos wrapper, and the query.
func routedFixture(t *testing.T, opts ...chaos.Option) (*fixture, *chaos.Accessor, string) {
	t.Helper()
	f := newFixture(t, "gremlin")
	st2 := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0))
	if _, err := netmodel.BuildDemo(st2, 1000); err != nil {
		t.Fatal(err)
	}
	ca := chaos.Wrap(relational.New(st2), opts...)
	f.x.Route("Phys", plan.NewEngine(ca))
	src := fmt.Sprintf(`Retrieve Phys
		From PATHS D1, PATHS Phys
		Where D1 MATCHES VNF(id=%d)->[Vertical()]{1,6}->Host()
		And Phys MATCHES PhysicalLink(){1,4}
		And source(Phys)=target(D1)`, f.idOf(f.d.FirewallVNF))
	return f, ca, src
}

func TestOutcomeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{ErrCanceled, "canceled"},
		{fmt.Errorf("var %q: %w", "P", ErrDeadlineExceeded), "deadline"},
		{&plan.LimitError{Counter: "paths", Limit: 1, Observed: 2}, "limit"},
		{&plan.PanicError{Value: "boom"}, "panic"},
		{errors.New("disk on fire"), "error"},
	}
	for _, c := range cases {
		if got := Outcome(c.err); got != c.want {
			t.Errorf("Outcome(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestRunContextCanceled(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()")
		res, err := f.x.RunContext(ctx, a)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("pre-canceled RunContext = %v, want ErrCanceled", err)
		}
		if res != nil {
			t.Error("canceled query must not return a result")
		}
	})
}

func TestLimitsTyped(t *testing.T) {
	backends(t, func(t *testing.T, f *fixture) {
		a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()")
		var le *plan.LimitError

		f.x.Limits = Limits{MaxPaths: 1}
		_, err := f.x.Run(a)
		if !errors.Is(err, ErrLimitExceeded) || !errors.As(err, &le) || le.Counter != "paths" {
			t.Fatalf("MaxPaths run = %v, want paths LimitError", err)
		}

		f.x.Limits = Limits{MaxEdgesScanned: 1}
		_, err = f.x.Run(a)
		if !errors.As(err, &le) || le.Counter != "edges_scanned" {
			t.Fatalf("MaxEdgesScanned run = %v, want edges_scanned LimitError", err)
		}

		// Generous limits leave the query untouched.
		f.x.Limits = Limits{MaxPaths: 1 << 20, MaxEdgesScanned: 1 << 20}
		res, err := f.x.Run(a)
		if err != nil || len(res.Rows) != 3 {
			t.Fatalf("generously limited run = %v rows, err %v; want 3 rows", res, err)
		}
	})
}

func TestMaxDurationAbortsPromptly(t *testing.T) {
	// A slow backend (200µs per probe) under a 1ms budget: the deadline
	// must trip cooperatively within a few probes, not after the full scan.
	st := graph.NewStore(netmodel.MustSchema(), temporal.NewManualClock(t0))
	if _, err := netmodel.BuildDemo(st, 1000); err != nil {
		t.Fatal(err)
	}
	eng := plan.NewEngine(chaos.Wrap(gremlin.New(st), chaos.WithLatency(200*time.Microsecond)))
	x := New(eng)
	x.Limits = Limits{MaxDuration: time.Millisecond}
	f := &fixture{st: st, x: x}
	a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES VNF()->[Vertical()]{1,6}->Host()")
	start := time.Now()
	_, err := x.Run(a)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("MaxDuration run = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Errorf("1ms budget aborted after %v; cooperative checkpoints too sparse", elapsed)
	}
}

func TestEnginePanicSurfacesAsError(t *testing.T) {
	f := newFixture(t, "gremlin")
	f.x.Default = plan.NewEngine(panicAccessor{inner: f.x.Default.Accessor()})
	a := f.analyze(t, "Retrieve P From PATHS P Where P MATCHES VM()")
	_, err := f.x.Run(a)
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("panicking engine run = %v, want ErrPanic", err)
	}
	if Outcome(err) != "panic" {
		t.Errorf("Outcome = %q, want panic", Outcome(err))
	}
}

// panicAccessor panics on every probe, standing in for a backend bug.
type panicAccessor struct{ inner plan.Accessor }

func (p panicAccessor) Name() string        { return p.inner.Name() }
func (p panicAccessor) Store() *graph.Store { return p.inner.Store() }

func (panicAccessor) AnchorElements(graph.View, *rpe.Checked, *rpe.Atom, *plan.Governor) ([]graph.UID, error) {
	panic("backend bug")
}

func (panicAccessor) IncidentEdges(graph.View, graph.UID, plan.Direction, *rpe.Atom, *rpe.Checked, *plan.Governor) ([]graph.UID, error) {
	panic("backend bug")
}

func TestRoutedRetrySucceeds(t *testing.T) {
	// A two-probe outage heals under a 3-attempt retry policy: the query
	// succeeds, non-degraded, and the retries are counted.
	f, ca, src := routedFixture(t, chaos.WithFailFirst(2))
	f.x.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond}
	reg := obs.NewRegistry()
	f.x.Reg = reg
	res, err := f.x.Run(f.analyze(t, src))
	if err != nil {
		t.Fatalf("run under transient outage = %v, want retried success", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("retried query returned no rows")
	}
	if res.Degraded {
		t.Error("retried success must not be flagged degraded")
	}
	if ca.Faults() != 2 {
		t.Errorf("Faults = %d, want 2", ca.Faults())
	}
	if n := reg.Counter("exec.routed_retries").Value(); n != 2 {
		t.Errorf("exec.routed_retries = %d, want 2", n)
	}
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	f, ca, src := routedFixture(t, chaos.WithFailProb(1, 42))
	f.x.BreakerThreshold = 2
	reg := obs.NewRegistry()
	f.x.Reg = reg
	a := f.analyze(t, src)

	// Two failing queries reach the threshold.
	for i := 0; i < 2; i++ {
		if _, err := f.x.Run(a); err == nil {
			t.Fatalf("query %d on a dead engine succeeded", i+1)
		}
	}
	if n := reg.Counter("exec.breaker_open").Value(); n != 1 {
		t.Fatalf("exec.breaker_open = %d, want 1", n)
	}
	// The open breaker short-circuits: typed error, engine never probed.
	before := ca.Calls()
	_, err := f.x.Run(a)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("run with open breaker = %v, want ErrBreakerOpen", err)
	}
	if ca.Calls() != before {
		t.Errorf("open breaker still probed the engine (%d -> %d calls)", before, ca.Calls())
	}
}

func TestBreakerHalfOpenRecovers(t *testing.T) {
	f, ca, src := routedFixture(t, chaos.WithFailProb(1, 7))
	f.x.BreakerThreshold = 1
	f.x.BreakerCooldown = 5 * time.Millisecond
	a := f.analyze(t, src)
	if _, err := f.x.Run(a); err == nil {
		t.Fatal("first query on a dead engine succeeded")
	}
	// After the cooldown, the half-open probe finds a healed engine and
	// closes the breaker for good.
	ca.Heal()
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 2; i++ {
		res, err := f.x.Run(a)
		if err != nil {
			t.Fatalf("healed query %d = %v, want breaker recovery", i+1, err)
		}
		if len(res.Rows) == 0 || res.Degraded {
			t.Fatalf("healed query %d: rows=%d degraded=%v", i+1, len(res.Rows), res.Degraded)
		}
	}
}

func TestDegradeFallbackAgreesWithHealthy(t *testing.T) {
	// The routed engine is dead; DegradeFallback serves Phys from the
	// default engine's store, and the answer must match a healthy
	// unrouted run exactly (both evaluate over the same default store).
	f, _, src := routedFixture(t, chaos.WithFailProb(1, 3))
	f.x.Degrade = DegradeFallback
	res, err := f.x.Run(f.analyze(t, src))
	if err != nil {
		t.Fatalf("degraded run = %v, want fallback success", err)
	}
	if !res.Degraded || len(res.DegradedVars) != 1 || res.DegradedVars[0] != "Phys" {
		t.Fatalf("Degraded=%v DegradedVars=%v, want Phys flagged", res.Degraded, res.DegradedVars)
	}
	healthy := newFixture(t, "gremlin")
	want := healthy.run(t, src)
	if len(res.Rows) != len(want.Rows) {
		t.Fatalf("degraded rows = %d, healthy rows = %d", len(res.Rows), len(want.Rows))
	}
	got := map[string]bool{}
	for _, row := range res.Rows {
		p, _ := row.Binding("Phys")
		got[p.Key()] = true
	}
	for _, row := range want.Rows {
		if p, _ := row.Binding("Phys"); !got[p.Key()] {
			t.Errorf("healthy pathway %s missing from degraded result", p.Key())
		}
	}
}

func TestDegradePartialBindsEmpty(t *testing.T) {
	f, _, src := routedFixture(t, chaos.WithFailProb(1, 9))
	f.x.Degrade = DegradePartial
	res, err := f.x.Run(f.analyze(t, src))
	if err != nil {
		t.Fatalf("partial run = %v, want flagged success", err)
	}
	if !res.Degraded {
		t.Error("partial result not flagged degraded")
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows needing the dead variable survived: %d", len(res.Rows))
	}
}

func TestGovernanceAbortNeverRetriedOrDegraded(t *testing.T) {
	// A canceled query must fail typed even under the most forgiving
	// fault-tolerance policy: the exhausted budget is the query's, not
	// the engine's.
	f, _, src := routedFixture(t)
	f.x.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	f.x.Degrade = DegradeFallback
	reg := obs.NewRegistry()
	f.x.Reg = reg
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.x.RunContext(ctx, f.analyze(t, src))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled routed run = %v, want ErrCanceled", err)
	}
	if n := reg.Counter("exec.routed_retries").Value(); n != 0 {
		t.Errorf("governance abort was retried %d times", n)
	}
}
