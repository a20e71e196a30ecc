package plan

import (
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/rpe"
	"repro/internal/temporal"
)

// ComputeValidity returns the maximal transaction-time ranges during which
// the pathway (a fixed element-uid sequence over evolving field values)
// satisfies the checked RPE.
//
// Field values are piecewise-constant between version boundaries, so the
// pathway's satisfaction is piecewise-constant too. Three regimes, from
// cheap to general:
//
//  1. Every element is *stable*: either single-version, or all its
//     versions agree on which atoms they satisfy (churn touched only
//     fields the query never tests). Then satisfaction cannot change
//     while all elements exist: one matcher run over the intersection of
//     the element lifetimes decides everything.
//  2. Otherwise, boundaries are collected from the unstable elements
//     only, the matcher runs once per constant-satisfaction slice, and
//     the satisfied slices union into maximal ranges — the §4 semantics,
//     where a time-range result reports the maximal range the pathway can
//     be asserted, possibly extending beyond the query window.
//
// memo carries one evaluation's per-element stability decisions and
// scratch slices (see Memo); nil computes everything afresh, as the
// reference oracle and the executor's view filter do.
func ComputeValidity(st *graph.Store, c *rpe.Checked, elems []graph.UID, memo *Memo) temporal.Set {
	objs, elements := memo.scratch(len(elems))
	allStable := true
	for i, uid := range elems {
		obj := st.Object(uid)
		if obj == nil {
			return nil
		}
		objs[i] = obj
		if !memo.stable(c, obj) {
			allStable = false
		}
	}

	if allStable {
		// Lifetimes of stable elements coalesce to a single interval each
		// (updates never interrupt existence; only delete ends it, and a
		// deleted uid is never re-created).
		iv := temporal.Interval{Start: time.Time{}, End: temporal.Forever}
		for i, obj := range objs {
			life := temporal.Interval{
				Start: obj.Versions[0].Period.Start,
				End:   obj.Versions[len(obj.Versions)-1].Period.End,
			}
			var ok bool
			if iv, ok = iv.Intersect(life); !ok {
				return nil
			}
			elements[i] = rpe.Element{Class: obj.Class, Fields: obj.Versions[0].Fields}
		}
		if !c.MatchesPathway(elements) {
			return nil
		}
		return temporal.Set{iv}
	}

	boundarySet := make(map[int64]time.Time)
	for _, obj := range objs {
		for _, v := range obj.Versions {
			boundarySet[v.Period.Start.UnixNano()] = v.Period.Start
			if !v.Period.IsCurrent() {
				boundarySet[v.Period.End.UnixNano()] = v.Period.End
			}
		}
	}
	boundaries := make([]time.Time, 0, len(boundarySet))
	for _, t := range boundarySet {
		boundaries = append(boundaries, t)
	}
	sort.Slice(boundaries, func(i, j int) bool { return boundaries[i].Before(boundaries[j]) })

	var out temporal.Set
	appendIfSatisfied := func(iv temporal.Interval, probe time.Time) {
		for i, obj := range objs {
			ver := obj.VersionAt(probe)
			if ver == nil {
				return
			}
			elements[i] = rpe.Element{Class: obj.Class, Fields: ver.Fields}
		}
		if c.MatchesPathway(elements) {
			out = append(out, iv)
		}
	}
	for i := 0; i < len(boundaries); i++ {
		start := boundaries[i]
		var iv temporal.Interval
		if i+1 < len(boundaries) {
			iv = temporal.Between(start, boundaries[i+1])
		} else {
			iv = temporal.Current(start)
		}
		appendIfSatisfied(iv, start)
	}
	return out.Normalize()
}

// Memo is one evaluation's validity memo. Whether an element's match can
// change over time is a property of the element — its versions form a
// chain of immutable intervals — so the memo decides stableForQuery once
// per multi-version element and query instead of once per assembled
// pathway that passes through it. It also lends ComputeValidity its
// per-pathway scratch slices.
//
// A Memo belongs to a single evaluation of a single checked RPE: the
// engine builds one per evaluation and never shares it across queries or
// caches it on a prepared plan, since the decisions depend on the RPE.
// An evaluation reads no snapshot, so a write committed while it runs
// can append a version to an element the memo has already decided; each
// decision therefore records the chain length it was made on and is
// redone when the chain has grown (versions are only ever appended). The
// zero value is ready to use; a nil *Memo disables memoization.
type Memo struct {
	stability map[graph.UID]stability // multi-version elements only
	objs      []*graph.Object
	elements  []rpe.Element
}

// stability is one memoized stableForQuery decision and the number of
// versions the element had when it was made.
type stability struct {
	versions int
	stable   bool
}

// stable is stableForQuery through the memo. Single-version elements are
// trivially stable and never enter the map.
func (m *Memo) stable(c *rpe.Checked, obj *graph.Object) bool {
	n := len(obj.Versions)
	if n == 1 {
		return true
	}
	if m == nil {
		return stableForQuery(c, obj)
	}
	s, ok := m.stability[obj.UID]
	if !ok || s.versions != n {
		if m.stability == nil {
			m.stability = make(map[graph.UID]stability)
		}
		s = stability{versions: n, stable: stableForQuery(c, obj)}
		m.stability[obj.UID] = s
	}
	return s.stable
}

// scratch returns ComputeValidity's per-element slices for an n-element
// pathway: reused across calls through a memo, fresh without one.
func (m *Memo) scratch(n int) ([]*graph.Object, []rpe.Element) {
	if m == nil {
		return make([]*graph.Object, n), make([]rpe.Element, n)
	}
	if cap(m.objs) < n {
		m.objs = make([]*graph.Object, n)
		m.elements = make([]rpe.Element, n)
	}
	return m.objs[:n], m.elements[:n]
}

// stableForQuery reports whether the object's satisfaction of every atom
// in the checked RPE is the same across all of its versions, so that no
// version boundary can flip the pathway's match status.
func stableForQuery(c *rpe.Checked, obj *graph.Object) bool {
	if len(obj.Versions) == 1 {
		return true
	}
	for _, a := range c.Atoms() {
		if !obj.Class.IsSubclassOf(c.ClassOf(a)) {
			continue // the atom never matches this object in any version
		}
		first := c.Satisfies(a, obj.Class, obj.Versions[0].Fields)
		for i := 1; i < len(obj.Versions); i++ {
			if c.Satisfies(a, obj.Class, obj.Versions[i].Fields) != first {
				return false
			}
		}
	}
	return true
}
