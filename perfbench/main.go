// Command perfbench is the repository's benchmark: it measures Nepal end
// to end and layer by layer on the paper's query mixes.
//
// One run loads a workload's fixture into a core.DB, serves it with
// internal/server on a loopback port inside this process, drives it
// through internal/client, and checks every answer against a reference
// the database computes in-process outside the timed window. The
// workloads, their mixes and their provenance are in workloads.json.
//
//	bash perfbench/run.sh --workload svc-interactive --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from an untraced run; --trace
// 1 reports the per-layer metrics from a traced run. The last line of
// standard output is one JSON object; a wrong answer, a WAL index out of
// step with the acked writes, or a writer behind its schedule makes
// "correct" false and the exit status 3.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name (see workloads.json)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed for the query anchors, statement order and write schedule")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&opt.scratch, "scratch", os.TempDir(), "directory for write-ahead logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opt.workload == "" || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds > 0 and --trace 0|1")
		return 2
	}
	opt.trace = trace == 1
	o, err := runBenchmark(context.Background(), opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range o.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, m := range o.metrics {
		fmt.Fprintf(stdout, "  %-32s %14.6f %s\n", m.name, m.value, m.unit)
	}
	for _, p := range o.problems {
		fmt.Fprintln(stdout, "  INVALID:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.valid, o.attempted, o.failed, map[string]value{}}
	for _, m := range o.metrics {
		result.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !o.valid {
		return 3
	}
	return 0
}
