package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/server"
)

const retrieve = "Retrieve P From PATHS P Where P MATCHES "

// histAt is the mid-history instant AT requests read at: 30 days into
// the fixtures' 60-day churn.
var histAt = bench.LoadTime.Add(30 * 24 * time.Hour).Format("2006-01-02 15:04:05")

// stmt is one distinct statement text the readers send. ref is the
// digest of its answer computed in-process before any timed window.
type stmt struct {
	text     string
	shape    string
	prepared bool
	at       bool
	ref      uint64
}

// shapes returns the distinct shapes of a mix, in order of appearance.
func shapes(mix []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range mix {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

type poolKey struct {
	shape    string
	prepared bool
	at       bool
}

// sequence is one reader's deterministic request stream. Shapes follow
// the mix cycle; per shape, requests alternate prepared and ad-hoc, and
// each such pair alternates current time and AT, so every shape sends
// the four kinds in equal shares. Within a kind, statements come from a
// seeded permutation cycled in order, so a run's anchor shares match
// the pool's exactly instead of varying with random draws.
type sequence struct {
	cycle  []string
	pos    int
	count  map[string]int
	pools  map[poolKey][]*stmt
	cursor map[poolKey]int
}

func newSequence(spec Spec, stmts []*stmt, seed int64, reader int) *sequence {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(reader) + 1))
	s := &sequence{
		cycle: spec.Mix,
		// Readers start at different points of the cycle so they do not
		// send the same shape in lockstep.
		pos:    reader * len(spec.Mix) / max(spec.Readers, 1),
		count:  map[string]int{},
		pools:  map[poolKey][]*stmt{},
		cursor: map[poolKey]int{},
	}
	for _, st := range stmts {
		k := poolKey{st.shape, st.prepared, st.at}
		s.pools[k] = append(s.pools[k], st)
	}
	for _, p := range s.pools {
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return s
}

func (s *sequence) next() *stmt {
	shape := s.cycle[s.pos%len(s.cycle)]
	s.pos++
	k := s.count[shape]
	s.count[shape]++
	key := poolKey{shape: shape, prepared: k%2 == 0, at: (k/2)%2 == 1}
	p := s.pools[key]
	st := p[s.cursor[key]%len(p)]
	s.cursor[key]++
	return st
}

// churn is the open-loop writer's deterministic event source: status
// updates of random targets plus, on the service fixture, migrations of
// idle VMs (VMs hosting no VFC). A migration is two single-op writes in
// consecutive slots: delete the VM's placement edge, then insert a new
// one to another host. Idle VMs lie on no answer of the read mix, so the
// readers' pathway sets stay fixed while the writes take the store's
// write lock and the WAL's fsync.
type churn struct {
	rng        *rand.Rand
	targets    []graph.UID
	statuses   []string
	fields     map[graph.UID]graph.Fields
	idle       []graph.UID
	hosts      []graph.UID
	placement  map[graph.UID]graph.UID // idle VM -> its live placement edge
	placeID    map[graph.UID]any       // idle VM -> its placement edge's id field
	migrations float64
	nextIdle   int
	pendingVM  graph.UID // set between a migration's delete and insert
	pendingTo  graph.UID
}

// newChurn snapshots the current fields of every target, so updates can
// send whole field maps; it must run before the writer starts.
func newChurn(fx *fixture, seed int64) (*churn, error) {
	c := &churn{
		rng:       rand.New(rand.NewSource(seed*7_919 + 17)),
		fields:    map[graph.UID]graph.Fields{},
		placement: map[graph.UID]graph.UID{},
		placeID:   map[graph.UID]any{},
	}
	switch {
	case fx.svc != nil:
		c.migrations = migrationShare
		c.targets = fx.svc.VMs
		c.statuses = []string{"Green", "Yellow", "Red"}
		c.hosts = fx.svc.Hosts
		for _, vm := range fx.svc.VMs[len(fx.svc.VMs)-fx.svc.Config.IdleVMs:] {
			for _, e := range fx.st.OutEdges(vm) {
				obj := fx.st.Object(e)
				if obj.Class.Name == netmodel.OnServer && obj.Current() != nil {
					c.placement[vm] = e
					c.placeID[vm] = obj.Current().Fields["id"]
					c.idle = append(c.idle, vm)
				}
			}
		}
		c.rng.Shuffle(len(c.idle), func(i, j int) { c.idle[i], c.idle[j] = c.idle[j], c.idle[i] })
	case fx.legacy != nil:
		l := fx.legacy
		for _, pool := range [][]graph.UID{l.Services, l.Access, l.Trunks, l.Equip} {
			c.targets = append(c.targets, pool...)
		}
		c.statuses = []string{"up", "down", "degraded"}
	}
	for _, uid := range c.targets {
		cur := fx.st.Object(uid).Current()
		if cur == nil {
			return nil, fmt.Errorf("write target %d has no current version", uid)
		}
		c.fields[uid] = cur.Fields.Clone()
	}
	if c.migrations > 0 && len(c.idle) == 0 {
		return nil, fmt.Errorf("migration share %.2f but the fixture has no placed idle VM", c.migrations)
	}
	return c, nil
}

// next returns the next write's single op. Ops depend on earlier acks
// only through the placement edge UID, which the serial sender learns
// from the insert's ack before it asks for the next op.
func (c *churn) next() server.IngestOp {
	if c.pendingVM != 0 {
		vm, to := c.pendingVM, c.pendingTo
		c.pendingVM = 0
		return server.IngestOp{Op: "insert-edge", Class: netmodel.OnServer,
			Src: int64(vm), Dst: int64(to), Fields: map[string]any{"id": c.placeID[vm]}}
	}
	if c.migrations > 0 && c.rng.Float64() < c.migrations {
		vm := c.idle[c.nextIdle%len(c.idle)]
		c.nextIdle++
		c.pendingVM, c.pendingTo = vm, c.hosts[c.rng.Intn(len(c.hosts))]
		return server.IngestOp{Op: "delete", UID: int64(c.placement[vm])}
	}
	uid := c.targets[c.rng.Intn(len(c.targets))]
	f := c.fields[uid]
	f["status"] = c.statuses[c.rng.Intn(len(c.statuses))]
	return server.IngestOp{Op: "update", UID: int64(uid), Fields: f}
}

// acked records an acknowledged op's effect on the writer's state.
func (c *churn) acked(op server.IngestOp, uids []int64) {
	if op.Op == "insert-edge" && len(uids) == 1 {
		c.placement[graph.UID(op.Src)] = graph.UID(uids[0])
	}
}
