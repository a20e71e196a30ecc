package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/gremlin"
	"repro/internal/plan"
	"repro/internal/relational"
	"repro/internal/workload"
)

// buildStatements draws each shape's anchors from the seed and splits
// them into those sent through prepared handles and those sent as
// ad-hoc text, so the two sets share no statement. For a shape marked
// stratify, candidates are ordered by the work an in-process execution
// does (partial pathways explored plus edges scanned) and both sets are
// picked evenly spaced over that order: a small pool then carries the
// population's mix of cheap and costly anchors whatever the seed, and
// runs with different seeds differ in which anchors they send, not in
// how costly those are. Every anchor runs at current time and AT
// mid-history.
func buildStatements(spec Spec, fx *fixture, db *core.DB, seed int64) ([]*stmt, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*stmt
	for _, shape := range shapes(spec.Mix) {
		a := spec.Anchors[shape]
		if a.Prepared < 1 || a.AdHoc < 1 {
			return nil, fmt.Errorf("shape %s needs at least one prepared and one ad-hoc anchor", shape)
		}
		n := a.Prepared + a.AdHoc
		rpes, err := fx.candidates(shape, n, rng)
		if err != nil {
			return nil, err
		}
		if a.Stratify {
			if rpes, err = byWork(db, rpes, rng); err != nil {
				return nil, err
			}
		}
		chosen, err := spread(len(rpes), n, rng)
		if err != nil {
			return nil, fmt.Errorf("shape %s: %w", shape, err)
		}
		prepared, _ := spread(n, a.Prepared, rng)
		isPrepared := map[int]bool{}
		for _, i := range prepared {
			isPrepared[i] = true
		}
		for i, c := range chosen {
			for _, at := range []bool{false, true} {
				text := retrieve + rpes[c]
				if at {
					text = "AT '" + histAt + "' " + text
				}
				out = append(out, &stmt{text: text, shape: shape, prepared: isPrepared[i], at: at})
			}
		}
	}
	return out, nil
}

// spread picks n of 0..size-1, evenly spaced from a random offset.
func spread(size, n int, rng *rand.Rand) ([]int, error) {
	if n > size {
		return nil, fmt.Errorf("%d anchors requested, the fixture offers %d", n, size)
	}
	step := float64(size) / float64(n)
	off := rng.Float64() * step
	out := make([]int, n)
	for i := range out {
		out[i] = int(off + float64(i)*step)
	}
	return out, nil
}

// byWork orders anchors by the work their current-time search does in
// process, ties in seeded random order. It runs on an engine of its own
// over db's store, so the served backend's lazy indexes stay cold for
// the timed warm-up.
func byWork(db *core.DB, rpes []string, rng *rand.Rand) ([]string, error) {
	rng.Shuffle(len(rpes), func(i, j int) { rpes[i], rpes[j] = rpes[j], rpes[i] })
	var acc plan.Accessor = gremlin.New(db.Store())
	if db.Backend() == core.BackendRelational {
		acc = relational.New(db.Store())
	}
	eng := plan.NewEngine(acc)
	work := make(map[string]int, len(rpes))
	for _, r := range rpes {
		_, _, m, err := bench.RunQueryMetered(eng, graph.CurrentView(db.Store()), r)
		if err != nil {
			return nil, fmt.Errorf("sizing anchor %q: %w", r, err)
		}
		work[r] = m.PartialsExplored + m.EdgesScanned
	}
	sort.SliceStable(rpes, func(i, j int) bool { return work[rpes[i]] < work[rpes[j]] })
	return rpes, nil
}

// candidates returns the shape's possible anchors: every VNF, host or
// rack for the shapes anchored there, or 4n distinct random draws where
// the population is large.
func (fx *fixture) candidates(shape string, n int, rng *rand.Rand) ([]string, error) {
	var out []string
	draw := func(next func() string) error {
		seen := map[string]bool{}
		for tries := 0; len(out) < 4*n && tries < 100*n; tries++ {
			if r := next(); !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
		if len(out) < n {
			return fmt.Errorf("shape %s: only %d distinct anchors, want %d", shape, len(out), n)
		}
		return nil
	}
	switch {
	case fx.svc != nil && shape == "top-down":
		s := workload.NewServiceSampler(fx.st, fx.svc, rng.Int63())
		for i := range fx.svc.VNFs {
			out = append(out, s.TopDown(i))
		}
		return out, nil
	case fx.svc != nil && shape == "bottom-up":
		s := workload.NewServiceSampler(fx.st, fx.svc, rng.Int63())
		return out, draw(s.BottomUp)
	case fx.svc != nil && shape == "host-host-4":
		s := workload.NewServiceSampler(fx.st, fx.svc, rng.Int63())
		return out, draw(func() string { return s.HostHost(4) })
	case fx.legacy != nil && shape == "reverse-path":
		s := workload.NewLegacySampler(fx.legacy, rng.Int63())
		return out, draw(s.ReversePath)
	case fx.legacy != nil && shape == "bottom-up":
		s := workload.NewLegacySampler(fx.legacy, rng.Int63())
		for _, r := range fx.legacy.Racks {
			out = append(out, s.BottomUpAt(r))
		}
		return out, nil
	}
	return nil, fmt.Errorf("shape %q does not apply to this workload's fixture", shape)
}
