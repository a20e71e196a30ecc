package plan_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

// TestChurnedElementValidity exercises the evaluation's stability memo:
// elements whose version chains mix flips of a tested predicate (status)
// with changes to fields no query tests (name), elements with untested
// churn only, and single-version elements, all shared by many pathways.
// Both backends must agree exactly with the unmemoized reference oracle,
// elements and validity, under current, past-point and range views.
func TestChurnedElementValidity(t *testing.T) {
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(netmodel.MustSchema(), clock)
	var id int64
	node := func(class, status string) graph.UID {
		t.Helper()
		id++
		uid, err := st.InsertNode(class, graph.Fields{"id": id, "name": fmt.Sprintf("%s-%d", class, id), "status": status})
		if err != nil {
			t.Fatal(err)
		}
		return uid
	}
	link := func(class string, a, b graph.UID) {
		t.Helper()
		id++
		if _, err := st.InsertEdge(class, a, b, graph.Fields{"id": id}); err != nil {
			t.Fatal(err)
		}
	}

	vnf := node("DNS", "Green")
	hosts := []graph.UID{node("ComputeHost", "Green"), node("ComputeHost", "Green"), node("StorageHost", "Red")}
	sw := []graph.UID{node("TORSwitch", "Green"), node("SpineSwitch", "Green")}
	var vms []graph.UID
	for i := 0; i < 6; i++ {
		vm := node("VMWare", "Green")
		vms = append(vms, vm)
		link(netmodel.OnServer, vm, hosts[i%len(hosts)])
		vfc := node("Proxy", "Green")
		link(netmodel.OnVM, vfc, vm)
		link(netmodel.ComposedOf, vnf, vfc)
	}
	for i, h := range hosts {
		link(netmodel.PhysicalLink, h, sw[i%2])
		link(netmodel.PhysicalLink, sw[i%2], h)
	}
	link(netmodel.PhysicalLink, sw[0], sw[1])

	// One churn step per hour. flip changes the tested status field;
	// rename changes only the untested name field.
	update := func(uid graph.UID, field, value string) {
		t.Helper()
		next := st.Object(uid).Current().Fields.Clone()
		next[field] = value
		if err := st.Update(uid, next); err != nil {
			t.Fatal(err)
		}
	}
	flip := func(uid graph.UID, status string) { update(uid, "status", status) }
	rename := func(uid graph.UID, name string) { update(uid, "name", name) }
	steps := []func(){
		func() { rename(vms[0], "a"); rename(hosts[0], "h0a"); rename(vms[1], "b") },
		func() { flip(vms[0], "Red"); rename(vms[2], "c") },
		func() { rename(vms[0], "a2"); flip(hosts[0], "Yellow"); rename(hosts[1], "h1a") },
		func() { flip(vms[0], "Green"); rename(vms[1], "b2"); flip(vms[3], "Red") },
		func() { rename(hosts[0], "h0b"); rename(sw[0], "tor") },
		func() { flip(hosts[0], "Green"); rename(vms[3], "d"); flip(vms[4], "Yellow") },
	}
	for _, step := range steps {
		clock.Advance(time.Hour)
		step()
	}
	clock.Advance(time.Hour)

	views := map[string]graph.View{
		"current":   graph.CurrentView(st),
		"past-1h30": graph.PointView(st, t0.Add(90*time.Minute)),
		"past-3h30": graph.PointView(st, t0.Add(210*time.Minute)),
		"past-5h30": graph.PointView(st, t0.Add(330*time.Minute)),
		"range-all": graph.RangeView(st, t0, clock.Now()),
		"range-mid": graph.RangeView(st, t0.Add(150*time.Minute), t0.Add(270*time.Minute)),
	}
	queries := []string{
		"VM(status='Green')->OnServer()->Host()",
		"VM()->OnServer()->Host(status='Green')",
		"VFC()->VM(status='Red')->Host()",
		"VNF()->[Vertical()]{1,4}->Host(status='Green')",
		"VNF()->VFC()->VM(status='Green')->Host(status='Green')",
		"Host(status='Green')->[PhysicalLink()]{1,3}->Switch()",
		"Host()->[PhysicalLink()]{1,4}->Host(status='Yellow')",
		"VM()->OnServer()->Host()",
	}
	engines := engines(st)
	for _, src := range queries {
		c, err := rpe.CheckString(src, st.Schema())
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		p, err := plan.Build(c, st.Stats())
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for vname, view := range views {
			ref := plan.ReferenceEval(view, c)
			for ename, eng := range engines {
				got, err := eng.Eval(view, p)
				if err != nil {
					t.Fatalf("%s/%s %q: %v", ename, vname, src, err)
				}
				compareSets(t, fmt.Sprintf("%s/%s %q", ename, vname, src), st, got, ref)
			}
		}
	}

	for _, backend := range []string{"gremlin", "relational"} {
		writeBetweenSeeds(t, backend)
	}
}

// writeBetweenSeeds commits a write during an evaluation: an element the
// memo has already decided stable gains a version that flips a tested
// predicate. Pathways assembled before the write must match the oracle on
// the old chain, those assembled after it the oracle on the new chain.
func writeBetweenSeeds(t *testing.T, backend string) {
	t.Helper()
	clock := temporal.NewManualClock(t0)
	st := graph.NewStore(netmodel.MustSchema(), clock)
	host, err := st.InsertNode("ComputeHost", graph.Fields{"id": int64(1), "name": "h", "status": "Green"})
	if err != nil {
		t.Fatal(err)
	}
	var vms []graph.UID
	for i := int64(0); i < 2; i++ {
		vm, err := st.InsertNode("VMWare", graph.Fields{"id": 10 + i, "name": fmt.Sprintf("vm%d", i), "status": "Green"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.InsertEdge(netmodel.OnServer, vm, host, graph.Fields{"id": 20 + i}); err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	set := func(field, value string) {
		t.Helper()
		clock.Advance(time.Hour)
		next := st.Object(host).Current().Fields.Clone()
		next[field] = value
		if err := st.Update(host, next); err != nil {
			t.Fatal(err)
		}
	}
	set("name", "h2") // two versions, both Green: stable for the query
	clock.Advance(time.Hour)

	c, err := rpe.CheckString("VM()->OnServer()->Host(status='Green')", st.Schema())
	if err != nil {
		t.Fatal(err)
	}
	view := graph.RangeView(st, t0, t0.Add(24*time.Hour))
	before := plan.ReferenceEval(view, c)

	var acc plan.Accessor = gremlin.New(st)
	if backend == "relational" {
		acc = relational.New(st)
	}
	hook := &writeOnExpand{Accessor: acc, node: vms[1], write: func() { set("status", "Red") }}
	got, err := plan.NewEngine(hook).EvalSeeded(view, plan.BuildSeeded(c, plan.Forward), vms)
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	if !hook.done {
		t.Fatalf("%s: the write never ran", backend)
	}
	after := plan.ReferenceEval(view, c)

	want := plan.NewPathwaySet()
	for _, p := range before.Paths() {
		if p.Elems[0] == vms[0] {
			want.Add(p)
		}
	}
	for _, p := range after.Paths() {
		if p.Elems[0] == vms[1] {
			want.Add(p)
		}
	}
	if want.Len() != 2 || before.Paths()[0].Validity.String() == after.Paths()[0].Validity.String() {
		t.Fatalf("%s: fixture does not exercise the write: before %v, after %v", backend, before.Paths(), after.Paths())
	}
	compareSets(t, backend+"/write-between-seeds", st, got, want)
}

// writeOnExpand runs write once, just before the search first expands
// node.
type writeOnExpand struct {
	plan.Accessor
	node  graph.UID
	write func()
	done  bool
}

func (w *writeOnExpand) IncidentEdges(view graph.View, node graph.UID, dir plan.Direction, atom *rpe.Atom, c *rpe.Checked, gov *plan.Governor) ([]graph.UID, error) {
	if node == w.node && !w.done {
		w.done = true
		w.write()
	}
	return w.Accessor.IncidentEdges(view, node, dir, atom, c, gov)
}
