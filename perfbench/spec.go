package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// An untraced run sets its workload up at least minSetups times, and
// more, up to maxSetups, while its set-ups total less than setupBudget,
// so a cheap set-up is sampled as often as a costly one's time allows.
// It reports the median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// probeWrites is the size of the read-only workloads' idle write probe.
const probeWrites = 5000

// latBatch is the batch size over which latency percentiles are taken
// before the median across batches: the smallest batch whose p99 has
// ten samples beyond it.
const latBatch = 1000

// writeTailPct is the write acks' tail percentile: the highest with ten
// samples beyond it in a batch.
var writeTailPct = tailPercentile(latBatch)

// migrationShare is the share of the service fixture's writes that start
// a VM migration; the legacy fixture has no VMs to migrate.
const migrationShare = 0.1

// Anchors sizes one query shape's instance pools: how many distinct
// anchors are sent through /v1/prepare+/v1/execute handles and how many
// as ad-hoc /v1/query text. Every anchor runs at current time and AT
// mid-history, so each yields two statements. Stratify picks both pools
// evenly over the candidates' measured work (see buildStatements).
type Anchors struct {
	Prepared int  `json:"prepared"`
	AdHoc    int  `json:"adhoc"`
	Stratify bool `json:"stratify"`
}

// Spec is one workload's parameters, read from workloads.json, which
// also records each workload's provenance, so the program and its
// documentation cannot drift. A workload with a write rate runs its
// open-loop writer during the reads; one without is read-only and
// prices writes with the idle probe afterwards.
type Spec struct {
	Name           string             `json:"name"`
	Fixture        string             `json:"fixture"`
	LegacyServices int                `json:"legacy_services"`
	Scale          string             `json:"scale"`
	Backend        string             `json:"backend"`
	Mix            []string           `json:"mix"`
	Anchors        map[string]Anchors `json:"anchors"`
	Readers        int                `json:"readers"`
	WriteRate      float64            `json:"write_rate_per_s"`
	WAL            bool               `json:"wal"`
	FlushPolicy    string             `json:"flush_policy"`
	QueryTailPct   float64            `json:"query_tail_pct"`
}

type specFile struct {
	Workloads []Spec `json:"workloads"`
}

// specs returns every workload in workloads.json, in file order.
func specs() ([]Spec, error) {
	var f specFile
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, fmt.Errorf("parsing workloads.json: %w", err)
	}
	return f.Workloads, nil
}

// lookupSpec returns the named workload.
func lookupSpec(name string) (Spec, error) {
	all, err := specs()
	if err != nil {
		return Spec{}, err
	}
	var names []string
	for _, s := range all {
		if s.Name == name {
			return s, nil
		}
		names = append(names, s.Name)
	}
	return Spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
