// Package plan turns a checked RPE plus a chosen anchor into an executable
// query plan, and implements the anchored bidirectional search engine that
// both backends share. Backends differ only in physical access — how
// anchor records are located and how a node's incident edges are retrieved
// — which they provide through the Accessor interface (the Gremlin backend
// scans labeled adjacency; the relational backend probes per-class tables
// and hash indexes, which is what the paper's edge-subclassing ablation
// measures).
package plan

import (
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/temporal"
)

// Pathway is Nepal's first-class query result: an alternating sequence of
// node and edge UIDs, n1,e1,...,nk, with the maximal transaction-time
// ranges during which the pathway satisfied the query.
type Pathway struct {
	// Elems holds the element UIDs in pathway order; even positions are
	// nodes, odd positions are edges.
	Elems []graph.UID
	// Validity holds the maximal assertion ranges (§4): the normalized
	// union over accepting runs of the intersection of the per-element
	// match periods.
	Validity temporal.Set
}

// Source returns the first node of the pathway.
func (p Pathway) Source() graph.UID { return p.Elems[0] }

// Target returns the last node of the pathway.
func (p Pathway) Target() graph.UID { return p.Elems[len(p.Elems)-1] }

// Len returns the number of elements (nodes + edges).
func (p Pathway) Len() int { return len(p.Elems) }

// Hops returns the number of edges in the pathway.
func (p Pathway) Hops() int { return len(p.Elems) / 2 }

// Key returns a canonical identity string over the element UIDs, used for
// deduplication and set semantics.
func (p Pathway) Key() string {
	var sb strings.Builder
	for i, uid := range p.Elems {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(int64(uid), 10))
	}
	return sb.String()
}

// ContainsElement reports whether the pathway passes through the element.
func (p Pathway) ContainsElement(uid graph.UID) bool {
	for _, e := range p.Elems {
		if e == uid {
			return true
		}
	}
	return false
}

// Render renders the pathway for display: Class#uid chained with arrows.
// It sizes the string first, so building it is one allocation.
func (p Pathway) Render(st *graph.Store) string {
	objs := make([]*graph.Object, 0, 16) // on the stack for short pathways
	var num [20]byte
	size := 0
	for _, uid := range p.Elems {
		obj := st.Object(uid)
		objs = append(objs, obj)
		size += len(" -> ?") + len(strconv.AppendInt(num[:0], int64(uid), 10))
		if obj != nil {
			size += len(obj.Class.Name)
		}
	}
	var sb strings.Builder
	sb.Grow(size)
	for i, obj := range objs {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		if obj == nil {
			sb.WriteByte('?')
		} else {
			sb.WriteString(obj.Class.Name)
			sb.WriteByte('#')
		}
		sb.Write(strconv.AppendInt(num[:0], int64(p.Elems[i]), 10))
	}
	return sb.String()
}

// PathwaySet is a deduplicated collection of pathways. Duplicate element
// sequences merge by unioning their validity sets — the true assertion
// range of a pathway is the union over all accepting runs.
//
// Pathways are indexed by a hash of their element UIDs in an open-
// addressing table of pathway positions; membership is decided by
// comparing element sequences, so no key string is ever built.
type PathwaySet struct {
	slots []int32 // power-of-two table: pathway index + 1, or 0 when free
	paths []Pathway
}

// NewPathwaySet returns an empty set.
func NewPathwaySet() *PathwaySet { return &PathwaySet{} }

// Add merges a pathway into the set.
func (s *PathwaySet) Add(p Pathway) {
	h := hashUIDs(p.Elems)
	if i := s.find(p.Elems, h); i >= 0 {
		s.paths[i].Validity = s.paths[i].Validity.Union(p.Validity)
		return
	}
	s.insert(p, h)
}

// find returns the index of the pathway with exactly these elements
// (whose hash is h), or -1.
func (s *PathwaySet) find(elems []graph.UID, h uint64) int {
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; len(s.slots) > 0; i = (i + 1) & mask {
		j := int(s.slots[i]) - 1
		if j < 0 {
			return -1
		}
		if equalUIDs(s.paths[j].Elems, elems) {
			return j
		}
	}
	return -1
}

// insert appends a pathway known to be absent; h is hashUIDs(p.Elems).
func (s *PathwaySet) insert(p Pathway, h uint64) {
	if len(s.paths) == cap(s.paths) {
		// Double, where append would grow a large slice by a quarter and
		// so allocate about five times its final size along the way.
		grown := make([]Pathway, len(s.paths), max(16, 2*cap(s.paths)))
		copy(grown, s.paths)
		s.paths = grown
	}
	s.paths = append(s.paths, p)
	if 2*len(s.paths) > len(s.slots) {
		// Keep the table at most half full; re-slot every pathway.
		s.slots = make([]int32, max(64, 2*len(s.slots)))
		for i := range s.paths {
			s.slot(hashUIDs(s.paths[i].Elems), i)
		}
		return
	}
	s.slot(h, len(s.paths)-1)
}

// slot records pathway i in the first free slot of its probe sequence.
func (s *PathwaySet) slot(h uint64, i int) {
	mask := uint64(len(s.slots) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		if s.slots[j] == 0 {
			s.slots[j] = int32(i + 1)
			return
		}
	}
}

// Paths returns the pathways in insertion order.
func (s *PathwaySet) Paths() []Pathway { return s.paths }

// Len returns the number of distinct pathways.
func (s *PathwaySet) Len() int { return len(s.paths) }

// hashUIDs mixes an element sequence into 64 bits.
func hashUIDs(uids []graph.UID) uint64 {
	h := uint64(len(uids)) * 0x9e3779b97f4a7c15
	for _, u := range uids {
		h = bits.RotateLeft64(h^uint64(u), 29) * 0xbf58476d1ce4e5b9
	}
	return h ^ h>>31
}

func equalUIDs(a, b []graph.UID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SharedElements returns the element UIDs common to every pathway in the
// set — the shared-fate primitive of §2.3.2: when troubleshooting
// service-quality issues for several customers, the elements their data
// flows share are the prime suspects. Returns nil for an empty input.
func SharedElements(paths []Pathway) []graph.UID {
	if len(paths) == 0 {
		return nil
	}
	shared := make(map[graph.UID]bool, len(paths[0].Elems))
	for _, uid := range paths[0].Elems {
		shared[uid] = true
	}
	for _, p := range paths[1:] {
		present := make(map[graph.UID]bool, len(p.Elems))
		for _, uid := range p.Elems {
			present[uid] = true
		}
		for uid := range shared {
			if !present[uid] {
				delete(shared, uid)
			}
		}
	}
	out := make([]graph.UID, 0, len(shared))
	for _, uid := range paths[0].Elems { // deterministic order
		if shared[uid] {
			out = append(out, uid)
		}
	}
	return out
}
