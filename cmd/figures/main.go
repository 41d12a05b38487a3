// Command figures regenerates every table and figure of the paper's
// evaluation section on the simulated testbed and prints the results as
// text tables (the per-experiment index lives in DESIGN.md).
//
// Usage:
//
//	figures [-scale full|test] [-fig all|table1,2,3,4,6,7,9,10,11,12,13,14,16,18,ablation,crossmachine]
//
// At -scale full the run uses the paper's experiment sizes (all 29 SPEC
// benchmarks, 4 CloudSuite applications, 4,000-server cluster) and takes
// several minutes; -scale test runs reduced sizes in seconds. Ctrl-C
// cancels the in-flight experiment; figures already printed stay printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "test", "experiment scale: full or test")
	figFlag := flag.String("fig", "all", "comma-separated figure ids (table1,2,3,4,6,7,9,10,11,12,13,14,16,18,ablation,crossmachine) or all")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "full":
		scale = experiments.FullScale()
	case "test":
		scale = experiments.TestScale()
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown scale %q (want full or test)\n", *scaleFlag)
		os.Exit(2)
	}
	lab := experiments.NewLab(scale)

	// A long -scale full run should die cleanly on Ctrl-C: the signal
	// context cancels the in-flight simulations and the completed figures
	// already flushed to stdout are the partial result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type step struct {
		id  string
		run func(context.Context) (fmt.Stringer, error)
	}
	steps := []step{
		{"table1", func(context.Context) (fmt.Stringer, error) { return lab.Table1(), nil }},
		{"2", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig2FunctionalUnitsContext(ctx) }},
		{"3", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig3And5PortUtilizationContext(ctx) }},
		{"4", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig4MemorySubsystemContext(ctx) }},
		{"6", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig6SummaryContext(ctx) }},
		{"7", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig7CorrelationContext(ctx) }},
		{"9", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig9RulerValidationContext(ctx) }},
		{"10", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig10SpecSMTContext(ctx) }},
		{"11", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig11SpecCMPContext(ctx) }},
		{"12", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig12CloudSuiteContext(ctx) }},
		{"13", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig13TailLatencyContext(ctx) }},
		{"14", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig14And15AvgQoSContext(ctx) }},
		{"16", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig16And17TailQoSContext(ctx) }},
		{"18", func(ctx context.Context) (fmt.Stringer, error) { return lab.Fig18TCOContext(ctx) }},
		{"ablation", func(ctx context.Context) (fmt.Stringer, error) { return lab.ModelAblationContext(ctx) }},
		{"crossmachine", func(ctx context.Context) (fmt.Stringer, error) { return lab.CrossMachineContext(ctx) }},
	}
	ids := make([]string, len(steps))
	for i, s := range steps {
		ids[i] = s.id
	}
	sel, err := selectFigs(*figFlag, ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(2)
	}
	ran := 0
	for _, s := range steps {
		if !sel(s.id) {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		res, err := s.run(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				break
			}
			fmt.Fprintf(os.Stderr, "figures: %s failed: %v\n", s.id, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s completed in %v]\n\n", s.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "figures: interrupted after %d figure(s); printed results are complete\n", ran)
		os.Exit(130)
	}
}

// selectFigs parses the comma-separated -fig list against the known step
// ids ("all" selects every step). An unknown id is an error naming it, so
// a typo fails before any figure runs.
func selectFigs(spec string, ids []string) (func(string) bool, error) {
	known := make(map[string]bool, len(ids))
	for _, id := range ids {
		known[id] = true
	}
	want := map[string]bool{}
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f != "all" && !known[f] {
			return nil, fmt.Errorf("unknown figure id %q (want all or one of %s)", f, strings.Join(ids, ","))
		}
		want[f] = true
	}
	return func(id string) bool { return want["all"] || want[id] }, nil
}
