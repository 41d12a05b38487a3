// Command clustersim runs the warehouse-scale discrete-event simulator:
// temporal job arrivals, machine churn and incremental contention-aware
// placement over a synthetic co-location world, with record/replay traces
// that reproduce a run bit for bit. The paper's static scale-out study
// (Figs. 14-18) runs through cmd/figures.
//
// Usage:
//
//	clustersim [-machines 1000] [-duration 1] [-churn 0.02] [-policy smite]
//	           [-trace-out run.trace] [-summary-json -]
//	clustersim -replay run.trace [-parallelism 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/version"
)

func main() {
	// Ctrl-C cancels the in-flight shard fan-out instead of orphaning it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "clustersim: %v\n", err)
		}
		os.Exit(2)
	}
}

// run parses args and runs the simulator, writing the report to w. Flag
// and validation errors return non-nil (the FlagSet prints usage).
func run(ctx context.Context, args []string, w io.Writer) error {
	var o simOptions
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	versionFlag := fs.Bool("version", false, "print the build version and exit")
	fs.IntVar(&o.machines, "machines", 1000, "initial fleet size")
	fs.Float64Var(&o.duration, "duration", 1, "simulated horizon in time units")
	fs.Float64Var(&o.churn, "churn", 0.02, "machine churn rate (fraction of fleet per time unit)")
	fs.Float64Var(&o.arrival, "arrival", 0, "job arrival rate per time unit (0 = 30 jobs per machine)")
	fs.StringVar(&o.policy, "policy", "smite", "placement policy (smite, oracle, random, slo, closedloop or isolation)")
	fs.Float64Var(&o.target, "target", 0.92, "QoS floor placements must respect, in (0,1]")
	fs.IntVar(&o.shards, "shards", 0, "scheduling cells to split the fleet into (0 = default)")
	fs.IntVar(&o.parallelism, "parallelism", 0, "worker goroutines for shard fan-out (0 = GOMAXPROCS); results are identical at any value")
	fs.Uint64Var(&o.seed, "seed", 1, "workload and synthetic-world seed")
	fs.StringVar(&o.traceOut, "trace-out", "", "record the exogenous event trace to this file")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded trace (config comes from the trace header)")
	fs.StringVar(&o.summaryJSON, "summary-json", "", "write the machine-readable run summary to this file (- for stdout)")
	fs.StringVar(&o.sloClasses, "slo-classes", "critical:20ms:0.95,standard:60ms:0.95,sheddable:150ms:0.90",
		"SLO classes for -policy=slo as name:budget[:percentile],... (budgets are Go durations)")
	fs.Float64Var(&o.sloHeadroom, "slo-headroom", 0.1, "admission headroom in [0,1); budgets shrink to budget*(1-headroom) for admission")
	fs.Float64Var(&o.sloMu, "slo-mu", 1000, "solo per-thread service rate (req/s) for the SLO classes' M/M/1 model")
	fs.Float64Var(&o.sloLambda, "slo-lambda", 600, "arrival rate (req/s) for the SLO classes' M/M/1 model")
	fs.Float64Var(&o.driftAt, "drift-at", 0, "simulated time the measured degradation surface shifts (with -drift-factor)")
	fs.Float64Var(&o.driftFactor, "drift-factor", 0, "factor the measured degradations scale by at -drift-at (0 = no drift)")
	fs.StringVar(&o.machineMix, "machine-mix", "", "heterogeneous fleet as gen=weight,... over named machine generations (snb, ivb, power7, smt4, biglittle); empty = homogeneous")
	fs.StringVar(&o.isolSpec, "isol", "", "isolation ladder for -policy=isolation as name:degscale:tax,... above the implicit off level (empty = stock ladder)")
	fs.StringVar(&o.alloc, "alloc", "", "thread-to-core allocation policy scoring candidate contexts (bestfit, firstfit, spread, minload or mindeg; empty = bestfit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionFlag {
		version.Fprint(w, "clustersim")
		return nil
	}
	return runClusterSim(ctx, o, w)
}
