// Command perfbench is the repository's end-to-end benchmark. It drives
// three closed-loop workloads through the simulator's public Go API,
// checks every operation's output, and prints one JSON result line:
//
//	campaign     CR-Spectre attempts judged by a trained HID (experiments, hid)
//	daemon       attack jobs through crspectred's HTTP API (controlapi, client)
//	gadget-scan  whole-corpus speculative-taint scans (analysis, sched)
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench --workload campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. All
// timings are host time. Simulated statistics never enter a metric;
// they are pinned as correctness checks instead (pins.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o     options
		trace int
	)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "run size in nominal seconds (the op count is this times the workload's nominal rate)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q: want one of %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	w := workloads[o.workload]
	var res *result
	if o.trace {
		res, err = tracedRun(w, o)
	} else {
		res, err = measuredRun(w, o)
	}
	if err != nil {
		return err
	}
	// The notes line documents the run (host, sizing, noise hygiene,
	// metrics a workload does not exercise); the result is the last line.
	notes, err := json.Marshal(res.notes)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", notes, line)
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
