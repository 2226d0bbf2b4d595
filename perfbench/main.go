// Command perfbench is SLiMFast's end-to-end benchmark. One process
// drives the real slimfast binary over HTTP (node-ingest,
// cluster-ingest) or runs the paper's batch pipeline in
// process (paper-fuse), checks the outputs against an in-process
// reference, and prints every metric with its unit, the last line
// being one JSON object. With --trace 1 it reports the per-layer
// numbers instead. See README.md; run it through run.sh from the
// repository root, which builds both binaries first.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // the slimfast binary under test
	work     string // scratch directory for logs, checkpoints and spans
}

var workloads = []string{"node-ingest", "cluster-ingest", "paper-fuse"}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "one of "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin/slimfast", "slimfast binary to drive")
	flag.StringVar(&cfg.work, "work", ".bench_build/run", "directory for logs, checkpoints and spans")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	rep := newReport()
	var err error
	switch cfg.workload {
	case "node-ingest":
		err = runServing(cfg, false, rep)
	case "cluster-ingest":
		err = runServing(cfg, true, rep)
	case "paper-fuse":
		err = runFuse(cfg, rep)
	default:
		return fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return err
	}
	rep.set("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)))
	defs := endToEnd
	if cfg.trace {
		// The traced run's own end-to-end numbers sit beside its layers;
		// against an untraced run they show what tracing cost.
		for _, d := range endToEnd {
			rep.vals["traced."+d.Name] = rep.vals[d.Name]
		}
		// A layer this workload never enters did no work.
		for _, d := range perLayer {
			if _, ok := rep.vals[d.Name]; !ok {
				rep.vals[d.Name] = 0
			}
		}
		defs = perLayer
	}
	if err := rep.emit(os.Stdout, defs); err != nil {
		return err
	}
	if len(rep.problems) > 0 {
		return fmt.Errorf("reference check failed")
	}
	return nil
}
