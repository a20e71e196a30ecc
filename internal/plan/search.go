package plan

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rpe"
)

// Engine executes plans against a backend's Accessor. It implements the
// anchored bidirectional NFA search of §5.1: Select the anchor records,
// Extend forwards from the anchor's post-state and backwards from its
// pre-state, and Union partial results — with cycle prevention via the
// uid-list disjointness predicate of §5.2.
//
// All evaluation entry points are safe for concurrent use on one Engine:
// per-evaluation instrumentation travels in an evalState threaded through
// the search rather than in Engine fields.
type Engine struct {
	acc Accessor
	// reg, when non-nil, receives per-evaluation metrics (eval counts,
	// latency histogram, scan volume); set via SetRegistry before serving.
	reg *engineObs
}

// NewEngine returns an engine over the backend accessor.
func NewEngine(acc Accessor) *Engine { return &Engine{acc: acc} }

// Accessor returns the backend accessor the engine drives.
func (e *Engine) Accessor() Accessor { return e.acc }

// engineObs caches the engine's registry metrics so the per-eval record
// is a handful of atomic adds.
type engineObs struct {
	evals    *obs.Counter
	latency  *obs.Histogram
	anchors  *obs.Counter
	edges    *obs.Counter
	partials *obs.Counter
	paths    *obs.Counter
}

// SetRegistry attaches a metrics registry: every evaluation then records
// its latency and operator counters under "engine.<backend>.*". A nil
// registry detaches. Call before the engine starts serving queries.
func (e *Engine) SetRegistry(r *obs.Registry) {
	if r == nil {
		e.reg = nil
		return
	}
	prefix := "engine." + e.acc.Name() + "."
	e.reg = &engineObs{
		evals:    r.Counter(prefix + "evals"),
		latency:  r.Histogram(prefix + "eval_latency_ms"),
		anchors:  r.Counter(prefix + "anchor_records"),
		edges:    r.Counter(prefix + "edges_scanned"),
		partials: r.Counter(prefix + "partials_explored"),
		paths:    r.Counter(prefix + "paths_emitted"),
	}
}

// record folds one evaluation into the registry metrics.
func (e *Engine) record(m Metrics, d time.Duration) {
	o := e.reg
	if o == nil {
		return
	}
	o.evals.Add(1)
	o.latency.Observe(float64(d) / 1e6)
	o.anchors.Add(int64(m.AnchorRecords))
	o.edges.Add(int64(m.EdgesScanned))
	o.partials.Add(int64(m.PartialsExplored))
	o.paths.Add(int64(m.PathsEmitted))
}

// evalState carries one evaluation's instrumentation and governance: the
// optional counters, the optional operator-span trace, the query's
// Governor, and the first failure (governance or backend) that aborts
// the search. The zero value disables everything; all sinks are nil-safe
// so the uninstrumented, ungoverned path costs only nil checks.
//
// It also carries the evaluation's validity memo, which lives and dies
// with the evaluation, and borrows a scratch for the search's working
// memory. An evaluation allocates per emitted pathway (its element slice
// and validity), not per explored partial.
type evalState struct {
	m   *Metrics
	tr  *traceEval
	gov *Governor
	err error

	memo Memo
	*scratch
}

// scratch is the search's working memory: the two half-search arenas and
// the buffers reused for every candidate element and assembled pathway.
// Nothing in it outlives the evaluation that borrowed it — emitted
// pathways are copied out — so evaluations recycle it through
// scratchPool instead of regrowing it each time.
type scratch struct {
	fwd, bwd arena
	// sat caches, for the element one consume call is testing, each
	// atom's satisfaction (indexed by atom ID: 0 untested, satYes, satNo).
	sat []uint8
	// next is consume's output state set; path and full hold the
	// pathway being assembled by combine and finish.
	next       rpe.StateSet
	path, full []graph.UID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// borrowScratch lends es a scratch; the returned func gives it back.
func (es *evalState) borrowScratch() func() {
	es.scratch = scratchPool.Get().(*scratch)
	return func() {
		scratchPool.Put(es.scratch)
		es.scratch = nil
	}
}

const (
	satYes = 1
	satNo  = 2
)

// checkpoint is the cooperative cancellation check the search loops run
// once per expanded partial (and per anchor element). It reports whether
// the evaluation must stop, latching the governance error into es.err.
func (es *evalState) checkpoint() bool {
	if es.err != nil {
		return true
	}
	if err := es.gov.Check(); err != nil {
		es.err = err
		return true
	}
	return false
}

// fail latches the first failure; later calls keep the original error.
func (es *evalState) fail(err error) {
	if es.err == nil && err != nil {
		es.err = err
	}
}

// EvalOpts configures one evaluation through EvalWith: the query's
// governor, the seed nodes (for seeded plans), and the tracing sink.
type EvalOpts struct {
	// Gov is the query's governor; nil evaluates ungoverned.
	Gov *Governor
	// Seeds supplies the imported anchor nodes of a seeded plan.
	Seeds []graph.UID
	// Traced enables operator-DAG tracing; TraceParent, when non-nil,
	// nests the Eval span under it (and implies Traced).
	Traced      bool
	TraceParent *obs.Span
}

// EvalWith is the general evaluation entry point: metered, optionally
// traced, optionally governed. Seeded plans draw their anchors from
// o.Seeds; anchored plans ignore them. Engine panics are converted to a
// *PanicError at this boundary, with the operator span attached when
// tracing. The returned span is nil unless tracing was enabled.
func (e *Engine) EvalWith(view graph.View, p *Plan, o EvalOpts) (*PathwaySet, Metrics, *obs.Span, error) {
	var m Metrics
	es := &evalState{m: &m, gov: o.Gov}
	if o.Traced || o.TraceParent != nil {
		es.tr = newTraceEval(e.acc.Name(), p, o.TraceParent)
	}
	start := time.Now()
	var set *PathwaySet
	var err error
	if p.Seeded {
		set, err = e.evalSeeded(view, p, o.Seeds, es)
	} else {
		set, err = e.eval(view, p, es)
	}
	if set != nil {
		m.PathsEmitted = set.Len()
	}
	var root *obs.Span
	if es.tr != nil {
		es.tr.finish(set, m)
		root = es.tr.root
	}
	e.record(m, time.Since(start))
	return set, m, root, err
}

// Eval evaluates the plan within the view and returns all satisfying
// pathways with their maximal validity ranges.
func (e *Engine) Eval(view graph.View, p *Plan) (*PathwaySet, error) {
	if e.reg != nil {
		set, _, err := e.EvalMetered(view, p)
		return set, err
	}
	return e.eval(view, p, &evalState{})
}

// EvalMetered is Eval with instrumentation: it returns the operator
// pipeline's counters alongside the pathway set.
func (e *Engine) EvalMetered(view graph.View, p *Plan) (*PathwaySet, Metrics, error) {
	set, m, _, err := e.EvalWith(view, p, EvalOpts{})
	return set, m, err
}

// EvalTraced is EvalMetered with operator-DAG tracing: it additionally
// returns the evaluation's span tree (one span per Select/Extend/Union
// operator, accumulating wall time, rows, and probe counts). When parent
// is non-nil the Eval span nests under it; otherwise it is a root span.
func (e *Engine) EvalTraced(view graph.View, p *Plan, parent *obs.Span) (*PathwaySet, Metrics, *obs.Span, error) {
	return e.EvalWith(view, p, EvalOpts{Traced: true, TraceParent: parent})
}

// recovered converts an engine panic into a *PanicError, attaching the
// evaluation's operator span when the run was traced. Recovery sits at
// the eval/evalSeeded boundary so every public entry point (and every
// routed retry in the executor) observes a plain error instead of a
// process-killing panic.
func recovered(es *evalState, err *error) {
	if r := recover(); r != nil {
		pe := &PanicError{Value: r, Stack: debug.Stack()}
		if es.tr != nil {
			es.tr.flush()
			pe.Span = es.tr.root
		}
		*err = pe
	}
}

func (e *Engine) eval(view graph.View, p *Plan, es *evalState) (set *PathwaySet, err error) {
	defer recovered(es, &err)
	defer es.borrowScratch()()
	if p.Seeded {
		return nil, fmt.Errorf("plan: seeded plan requires EvalSeeded")
	}
	out := NewPathwaySet()
	c := p.Checked
	nfa := c.NFA()
	for _, atom := range p.Anchor.Atoms {
		if es.checkpoint() {
			break
		}
		var elements []graph.UID
		var aerr error
		if es.tr != nil {
			n := es.tr.selectNode(atom)
			t0 := n.begin()
			elements, aerr = e.acc.AnchorElements(view, c, atom, es.gov)
			n.end(t0)
			n.probes++
			n.rowsOut += int64(len(elements))
		} else {
			elements, aerr = e.acc.AnchorElements(view, c, atom, es.gov)
		}
		if aerr != nil {
			es.fail(aerr)
			break
		}
		es.m.addAnchors(len(elements))
		transIdxs := nfa.TransWithAtom(atom.ID())
		for _, uid := range elements {
			if es.checkpoint() {
				break
			}
			obj := e.acc.Store().Object(uid)
			if obj == nil || !e.atomSatisfiedInView(view, c, atom, obj) {
				continue
			}
			for _, ti := range transIdxs {
				tr := nfa.Trans[ti]
				// The anchor element is already consumed at both roots.
				es.fwd.reset(obj, Forward, true, nfa.Closure(tr.To))
				fwd := e.search(view, c, p, &es.fwd, Forward, es)
				es.bwd.reset(obj, Backward, true, nfa.ClosureRev(tr.From))
				bwd := e.search(view, c, p, &es.bwd, Backward, es)
				if es.tr != nil {
					n := es.tr.unionNode()
					before := out.Len()
					t0 := n.begin()
					e.combine(view, c, out, bwd, fwd, es)
					n.end(t0)
					n.rowsIn += int64(len(bwd) * len(fwd))
					n.rowsOut += int64(out.Len() - before)
				} else {
					e.combine(view, c, out, bwd, fwd, es)
				}
			}
		}
	}
	if es.err != nil {
		return nil, es.err
	}
	return out, nil
}

// EvalSeeded evaluates a plan whose anchor is imported from a join. Seeds
// are node UIDs bound to the pathway's source (Forward) or target
// (Backward) end.
func (e *Engine) EvalSeeded(view graph.View, p *Plan, seeds []graph.UID) (*PathwaySet, error) {
	if e.reg != nil {
		set, _, err := e.EvalSeededMetered(view, p, seeds)
		return set, err
	}
	return e.evalSeeded(view, p, seeds, &evalState{})
}

// EvalSeededMetered is EvalSeeded with instrumentation.
func (e *Engine) EvalSeededMetered(view graph.View, p *Plan, seeds []graph.UID) (*PathwaySet, Metrics, error) {
	set, m, _, err := e.EvalWith(view, p, EvalOpts{Seeds: seeds})
	return set, m, err
}

// EvalSeededTraced is EvalSeeded with operator-DAG tracing.
func (e *Engine) EvalSeededTraced(view graph.View, p *Plan, seeds []graph.UID, parent *obs.Span) (*PathwaySet, Metrics, *obs.Span, error) {
	return e.EvalWith(view, p, EvalOpts{Seeds: seeds, Traced: true, TraceParent: parent})
}

func (e *Engine) evalSeeded(view graph.View, p *Plan, seeds []graph.UID, es *evalState) (set *PathwaySet, err error) {
	defer recovered(es, &err)
	defer es.borrowScratch()()
	out := NewPathwaySet()
	c := p.Checked
	for _, seed := range seeds {
		if es.checkpoint() {
			break
		}
		obj := e.acc.Store().Object(seed)
		if obj == nil || obj.IsEdge() || !view.Visible(obj) {
			continue
		}
		if es.tr != nil {
			ssel := es.tr.seedSelectNode()
			ssel.rowsIn++
			ssel.rowsOut++
			n := es.tr.unionNode()
			before := out.Len()
			t0 := n.begin()
			e.evalSeedOne(view, c, p, obj, out, es)
			n.end(t0)
			n.rowsOut += int64(out.Len() - before)
		} else {
			e.evalSeedOne(view, c, p, obj, out, es)
		}
		es.m.addAnchors(1)
	}
	if es.err != nil {
		return nil, es.err
	}
	return out, nil
}

// evalSeedOne runs both seed branches (§3.4) for one seed node.
func (e *Engine) evalSeedOne(view graph.View, c *rpe.Checked, p *Plan, seed *graph.Object, out *PathwaySet, es *evalState) {
	nfa := c.NFA()
	dir := p.SeedDir
	init := nfa.Closure(nfa.Start)
	if dir == Backward {
		init = nfa.ClosureRev(nfa.Accept)
	}
	// Branch (a): the seed node is consumed by a leading node atom.
	if _, ok := e.consume(view, c, init, seed.UID, dir, es); ok {
		es.fwd.reset(seed, dir, true, es.next)
		e.finishSeeded(view, c, out, dir, e.search(view, c, p, &es.fwd, dir, es), es)
	}
	// Branch (b): the seed is the implicit endpoint of a leading edge
	// match; nothing consumed yet.
	es.fwd.reset(seed, dir, false, init)
	e.finishSeeded(view, c, out, dir, e.search(view, c, p, &es.fwd, dir, es), es)
}

// finishSeeded finalizes the completions of a seeded half-search: a
// forward chain runs from the pathway's tail back to the seed, a backward
// chain from its head forward to the seed.
func (e *Engine) finishSeeded(view graph.View, c *rpe.Checked, out *PathwaySet, dir Direction, done []int32, es *evalState) {
	for _, i := range done {
		n := es.fwd.nodes[i]
		es.full = grow(es.full, int(n.depth))
		es.fwd.fill(es.full, i, dir == Forward)
		if dir == Forward {
			e.finish(view, c, out, es.full, n.edge, false, es)
		} else {
			e.finish(view, c, out, es.full, false, n.edge, es)
		}
	}
}

// partial is one node of a half-search's tree of partial pathways. A
// partial pathway is the chain from a node up to the root (the anchor or
// seed); siblings share their prefix, so extending a partial appends one
// node instead of copying an element list.
type partial struct {
	elem graph.UID
	// succ is, for an edge, its endpoint in the search direction — the
	// only element that can follow it.
	succ   graph.UID
	parent int32 // index of the partial this one extends; -1 at the root
	depth  int32 // elements on the chain, root included
	edge   bool
	// consumed reports that the chain consumed at least one element; only
	// a seed root standing for an implicit endpoint has not.
	consumed bool
}

// arena holds one half-search: its partials, their NFA state sets back
// to back (words per partial), the DFS stack, and the completed partials.
// The slices are reused across anchors and seeds, and across evaluations
// through scratchPool.
type arena struct {
	nodes  []partial
	states []uint64
	words  int
	stack  []int32
	done   []int32
}

// reset empties the arena and pushes the root partial.
func (a *arena) reset(root *graph.Object, dir Direction, consumed bool, states rpe.StateSet) {
	a.nodes, a.states, a.stack, a.done = a.nodes[:0], a.states[:0], a.stack[:0], a.done[:0]
	a.words = len(states)
	a.push(root, dir, -1, consumed, states)
}

// push appends a partial extending parent by obj and schedules it.
func (a *arena) push(obj *graph.Object, dir Direction, parent int32, consumed bool, states rpe.StateSet) {
	n := partial{elem: obj.UID, parent: parent, depth: 1, edge: obj.IsEdge(), consumed: consumed}
	if parent >= 0 {
		n.depth = a.nodes[parent].depth + 1
	}
	if n.edge {
		n.succ = obj.Dst
		if dir == Backward {
			n.succ = obj.Src
		}
	}
	a.stack = append(a.stack, int32(len(a.nodes)))
	a.nodes = append(a.nodes, n)
	a.states = append(a.states, states...)
}

// statesOf returns partial i's state set. Later pushes may move the
// backing array, but never rewrite an existing set.
func (a *arena) statesOf(i int32) rpe.StateSet {
	return a.states[int(i)*a.words : int(i+1)*a.words]
}

// fill writes the chain from partial i up to the root into dst, whose
// length must be the chain's depth: partial first, or root first when
// rootFirst.
func (a *arena) fill(dst []graph.UID, i int32, rootFirst bool) {
	last := len(dst) - 1
	for k := 0; i >= 0; i, k = a.nodes[i].parent, k+1 {
		if rootFirst {
			dst[last-k] = a.nodes[i].elem
		} else {
			dst[k] = a.nodes[i].elem
		}
	}
}

// search runs one half-search from the arena's root to exhaustion and
// returns the completed partials, including the root when it already
// accepts. Forward chains complete at the automaton's Accept state,
// backward chains (run on the reversed automaton) at its Start state.
func (e *Engine) search(view graph.View, c *rpe.Checked, p *Plan, a *arena, dir Direction, es *evalState) []int32 {
	nfa := c.NFA()
	final := nfa.Accept
	if dir == Backward {
		final = nfa.Start
	}
	for len(a.stack) > 0 {
		if es.checkpoint() {
			break
		}
		i := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		es.m.addPartial()
		cur := a.nodes[i]
		states := a.statesOf(i)
		if cur.consumed && states.Has(final) {
			a.done = append(a.done, i)
		}
		if int(cur.depth) >= p.MaxLen+2 {
			continue
		}
		if cur.edge {
			// Structural successor: the edge's endpoint.
			e.step(view, c, a, i, cur.succ, dir, es)
		} else if hint, feasible := e.expandHint(c, states, dir); feasible {
			e.expand(view, c, a, i, hint, dir, es)
		}
	}
	return a.done
}

// expand performs one Extend operator execution: an adjacency probe at
// partial i's node followed by one consume attempt per returned edge.
// When tracing, the probe's wall time and candidate volume accumulate
// into the Extend span of the (hint, dir) operator.
func (e *Engine) expand(view graph.View, c *rpe.Checked, a *arena, i int32, hint *rpe.Atom, dir Direction, es *evalState) {
	node := a.nodes[i].elem
	if es.tr == nil {
		edges, err := e.acc.IncidentEdges(view, node, dir, hint, c, es.gov)
		if err != nil {
			es.fail(err)
			return
		}
		es.m.addEdges(len(edges))
		if err := es.gov.AddEdges(len(edges)); err != nil {
			es.fail(err)
			return
		}
		for _, edge := range edges {
			e.step(view, c, a, i, edge, dir, es)
		}
		return
	}
	n := es.tr.extendNode(hint, dir)
	t0 := n.begin()
	edges, err := e.acc.IncidentEdges(view, node, dir, hint, c, es.gov)
	n.end(t0)
	n.probes++
	n.edges += int64(len(edges))
	n.rowsIn++
	if err != nil {
		es.fail(err)
		return
	}
	es.m.addEdges(len(edges))
	if err := es.gov.AddEdges(len(edges)); err != nil {
		es.fail(err)
		return
	}
	for _, edge := range edges {
		if e.step(view, c, a, i, edge, dir, es) {
			n.rowsOut++
		} else {
			// Candidates pruned by cycle prevention or rejected by the NFA.
			n.rejected++
		}
	}
}

// step consumes one element after partial i, pushing the extended
// partial when any transition fires. It reports whether the element was
// consumed.
func (e *Engine) step(view graph.View, c *rpe.Checked, a *arena, i int32, elem graph.UID, dir Direction, es *evalState) bool {
	for j := i; j >= 0; j = a.nodes[j].parent {
		if a.nodes[j].elem == elem {
			return false // cycle prevention: H.id_ != ANY(uid_list)
		}
	}
	obj, ok := e.consume(view, c, a.statesOf(i), elem, dir, es)
	if !ok {
		es.m.addRejected()
		return false
	}
	es.m.addConsumed()
	a.push(obj, dir, i, true, es.next)
	return true
}

// consume advances the state set over one element: skip transitions fire
// whenever the element exists in the view; atom transitions additionally
// require class and predicate satisfaction, decided at most once per
// atom. The epsilon-closed result lands in es.next; the element's object
// is returned alongside.
func (e *Engine) consume(view graph.View, c *rpe.Checked, cur rpe.StateSet, elem graph.UID, dir Direction, es *evalState) (*graph.Object, bool) {
	obj := e.acc.Store().Object(elem)
	if obj == nil || !view.Visible(obj) {
		return nil, false
	}
	nfa := c.NFA()
	if len(es.next) != len(cur) {
		es.next = rpe.NewStateSet(nfa.NumStates)
	} else {
		es.next.Reset()
	}
	if n := len(c.Atoms()); len(es.sat) != n {
		es.sat = make([]uint8, n)
	} else {
		clear(es.sat)
	}
	isEdge := obj.IsEdge()
	any := false
	cur.ForEach(func(s int) {
		var transIdx []int
		if dir == Forward {
			transIdx = nfa.OutTrans(s)
		} else {
			transIdx = nfa.InTrans(s)
		}
		for _, ti := range transIdx {
			tr := nfa.Trans[ti]
			if !c.CanConsume(ti, isEdge) {
				continue // statically dead for this element kind
			}
			if tr.Atom != nil {
				id := tr.Atom.ID()
				if es.sat[id] == 0 {
					es.sat[id] = satNo
					if e.atomSatisfiedInView(view, c, tr.Atom, obj) {
						es.sat[id] = satYes
					}
				}
				if es.sat[id] == satNo {
					continue
				}
			}
			any = true
			if dir == Forward {
				es.next.Or(nfa.Closure(tr.To))
			} else {
				es.next.Or(nfa.ClosureRev(tr.From))
			}
		}
	})
	return obj, any
}

// atomSatisfiedInView reports whether the object satisfies the atom at
// some instant admitted by the view (exact for point views; a candidate
// filter for range views, with exact validity computed at assembly).
func (e *Engine) atomSatisfiedInView(view graph.View, c *rpe.Checked, a *rpe.Atom, obj *graph.Object) bool {
	if !obj.Class.IsSubclassOf(c.ClassOf(a)) {
		return false
	}
	if view.IsPoint() {
		ver := obj.VersionAt(view.At())
		return ver != nil && c.Satisfies(a, obj.Class, ver.Fields)
	}
	for i := range obj.Versions {
		ver := &obj.Versions[i]
		if ver.Period.Overlaps(view.Window()) && c.Satisfies(a, obj.Class, ver.Fields) {
			return true
		}
	}
	return false
}

// expandHint inspects the transitions leaving (or entering) the current
// state set. feasible is false when no live transition can consume an
// edge at all — the partial pathway cannot be extended and the adjacency
// scan is skipped entirely. Otherwise, when every way to consume the next
// edge goes through a single edge atom and no skip transition, that atom
// is returned as a safe pruning hint for the backend's partitioned
// indexes; a nil hint with feasible true means an unpruned scan.
func (e *Engine) expandHint(c *rpe.Checked, cur rpe.StateSet, dir Direction) (hint *rpe.Atom, feasible bool) {
	nfa := c.NFA()
	var atom *rpe.Atom
	dead := false
	any := false
	cur.ForEach(func(s int) {
		var transIdx []int
		if dir == Forward {
			transIdx = nfa.OutTrans(s)
		} else {
			transIdx = nfa.InTrans(s)
		}
		for _, ti := range transIdx {
			tr := nfa.Trans[ti]
			if !c.CanConsume(ti, true) {
				continue // can never consume an edge: irrelevant here
			}
			if tr.Atom == nil {
				dead = true // a live skip can consume any edge: no pruning
				any = true
				return
			}
			if c.ClassOf(tr.Atom).IsNode() {
				continue // node atoms cannot consume the edge; irrelevant
			}
			any = true
			if atom != nil && atom != tr.Atom {
				dead = true // multiple possible edge atoms: no single hint
				return
			}
			atom = tr.Atom
		}
	})
	if !any {
		return nil, false
	}
	if dead {
		return nil, true
	}
	return atom, true
}

// combine joins backward and forward completions around the shared
// anchor element and finalizes each pathway. A backward chain runs from
// the pathway's head to the anchor, a forward chain from its tail back to
// the anchor; the anchor is written once.
func (e *Engine) combine(view graph.View, c *rpe.Checked, out *PathwaySet, bwd, fwd []int32, es *evalState) {
	for _, b := range bwd {
		if es.checkpoint() {
			return
		}
		bn := es.bwd.nodes[b]
		pre := int(bn.depth) - 1 // head..anchor, anchor excluded
		for _, f := range fwd {
			fn := es.fwd.nodes[f]
			full := grow(es.full, pre+int(fn.depth))
			es.bwd.fill(full[:pre+1], b, false)
			es.fwd.fill(full[pre:], f, true)
			es.full = full
			e.finish(view, c, out, full, fn.edge, bn.edge, es)
		}
	}
}

// finish adds implicit endpoint nodes where the match region starts or
// ends at an edge, computes exact validity, and admits the pathway when
// its validity overlaps the view window. Pathways revisiting an element
// (two half-searches that crossed) and duplicates (found again through
// another anchor instance or run) are skipped before the validity
// computation — ComputeValidity is deterministic per element sequence, so
// recomputation would be pure waste. elems is scratch the caller reuses;
// only an admitted pathway gets its own copy.
func (e *Engine) finish(view graph.View, c *rpe.Checked, out *PathwaySet, elems []graph.UID, tailEdge, headEdge bool, es *evalState) {
	st := e.acc.Store()
	full := es.path[:0]
	if headEdge || e.isEdge(elems[0]) {
		full = append(full, st.Object(elems[0]).Src)
	}
	full = append(full, elems...)
	if last := elems[len(elems)-1]; tailEdge || e.isEdge(last) {
		full = append(full, st.Object(last).Dst)
	}
	es.path = full
	if hasDuplicates(full) {
		return
	}
	h := hashUIDs(full)
	if out.find(full, h) >= 0 {
		return
	}
	validity := ComputeValidity(st, c, full, &es.memo)
	if validity.IsEmpty() {
		return
	}
	overlaps := false
	for _, iv := range validity {
		if iv.Overlaps(view.Window()) {
			overlaps = true
			break
		}
	}
	if !overlaps {
		return
	}
	out.insert(Pathway{Elems: cloneUIDs(full), Validity: validity}, h)
	if err := es.gov.AddPaths(1); err != nil {
		es.fail(err)
	}
}

func (e *Engine) isEdge(uid graph.UID) bool {
	obj := e.acc.Store().Object(uid)
	return obj != nil && obj.IsEdge()
}

func cloneUIDs(in []graph.UID) []graph.UID {
	out := make([]graph.UID, len(in))
	copy(out, in)
	return out
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short.
func grow(buf []graph.UID, n int) []graph.UID {
	if cap(buf) < n {
		return make([]graph.UID, n, 2*n)
	}
	return buf[:n]
}

// hasDuplicates reports whether any UID repeats. Pathways are short, so
// a pairwise scan is cheap and allocates nothing.
func hasDuplicates(uids []graph.UID) bool {
	for i := 1; i < len(uids); i++ {
		for j := 0; j < i; j++ {
			if uids[i] == uids[j] {
				return true
			}
		}
	}
	return false
}
