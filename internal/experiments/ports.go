package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim/isa"
	"repro/internal/stats"
	"repro/internal/workload"
)

// PortUtilResult holds the aggregated per-port utilisation samples across
// all SPEC co-location pairs, behind Figure 3 (ports 0, 1, 5) and Figure 5
// (memory ports 2, 3, 4).
type PortUtilResult struct {
	Pairs int
	// Utils[p] holds one aggregated-utilisation sample per co-located
	// pair: the two contexts' dispatches to port p divided by window
	// cycles.
	Utils [isa.NumPorts][]float64
}

// Fig3And5PortUtilizationContext co-locates all (truncated) SPEC pairs on
// the Ivy Bridge machine and collects the aggregated utilisation of every
// execution port from the simulated PMUs. Cancellation is cooperative; the
// per-pair co-locations fan out on the internal/sched worker pool.
func (l *Lab) Fig3And5PortUtilizationContext(ctx context.Context) (PortUtilResult, error) {
	set := workload.SPECCPU2006()
	if l.Scale.MaxPairApps > 0 && len(set) > l.Scale.MaxPairApps {
		set = set[:l.Scale.MaxPairApps]
	}
	type pair struct{ a, b *workload.Spec }
	var pairs []pair
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			pairs = append(pairs, pair{set[i], set[j]})
		}
	}
	type sample [isa.NumPorts]float64
	samples := make([]sample, len(pairs))
	err := sched.Map(ctx, len(pairs), l.workers(), func(ctx context.Context, i int) error {
		pr := pairs[i]
		res, err := profile.ColocateContext(ctx, l.IVB, profile.App(pr.a), profile.App(pr.b), profile.SMT, l.Scale.Options)
		if err != nil {
			return err
		}
		a, b := res.AppCounters[0], res.PartnerCounters[0]
		for p := isa.Port(0); p < isa.NumPorts; p++ {
			samples[i][p] = a.PortUtilization(p) + b.PortUtilization(p)
		}
		return nil
	})
	if err != nil {
		return PortUtilResult{}, err
	}
	out := PortUtilResult{Pairs: len(pairs)}
	for _, s := range samples {
		for p := 0; p < isa.NumPorts; p++ {
			out.Utils[p] = append(out.Utils[p], s[p])
		}
	}
	return out, nil
}

// CDF returns the empirical CDF of one port's aggregated utilisation.
func (r PortUtilResult) CDF(p isa.Port) *stats.ECDF { return stats.NewECDF(r.Utils[p]) }

// Median returns the median aggregated utilisation of a port.
func (r PortUtilResult) Median(p isa.Port) float64 {
	return stats.Percentile(r.Utils[p], 0.5)
}

// String renders decile tables for the functional-unit ports (Figure 3)
// and memory ports (Figure 5).
func (r PortUtilResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figures 3 & 5: aggregated port utilisation CDFs over %d SPEC co-location pairs\n", r.Pairs)
	render := func(title string, ports []isa.Port) {
		b.WriteString(title + "\n")
		header := []string{"percentile"}
		for _, p := range ports {
			header = append(header, fmt.Sprintf("port %d", p))
		}
		t := newTable(header...)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
			row := []string{fmt.Sprintf("p%.0f", q*100)}
			for _, p := range ports {
				row = append(row, f3(stats.Percentile(r.Utils[p], q)))
			}
			t.row(row...)
		}
		b.WriteString(t.String())
	}
	render("Figure 3 (functional-unit ports):", []isa.Port{0, 1, 5})
	render("Figure 5 (memory ports):", []isa.Port{2, 3, 4})
	fmt.Fprintf(&b, "store port 4 median %.3f vs load ports median %.3f/%.3f (paper: port 4 heavily underutilised)\n",
		r.Median(4), r.Median(2), r.Median(3))
	return b.String()
}
