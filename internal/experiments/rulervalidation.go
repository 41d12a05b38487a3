package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/profile"
	"repro/internal/rulers"
	"repro/internal/sched"
	"repro/internal/sim/isa"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FURulerCheck validates one functional-unit Ruler against the two design
// principles of Section III-B1: maximum pressure on the target port(s),
// minimal pressure anywhere else.
type FURulerCheck struct {
	Name string
	// TargetUtil is the minimum utilisation across the Ruler's target
	// port(s) when running solo (paper: > 99.99%, validated with
	// UOPS_DISPATCHED_PORT counters).
	TargetUtil float64
	// Leakage is the maximum utilisation observed on any non-target port.
	Leakage float64
	// MemAccesses counts hierarchy accesses (must be zero).
	MemAccesses uint64
}

// LinearityCheck validates a memory Ruler's intensity→interference
// linearity: the per-application Pearson correlation between working-set
// scale and induced degradation, averaged over the application set
// (paper: r = 0.92 for L1, 0.89 for L2, 0.95 for L3).
type LinearityCheck struct {
	Dim         rulers.Dimension
	Intensities []float64
	// MeanR is the mean per-application Pearson r; PerApp the individual
	// coefficients keyed by application.
	MeanR  float64
	PerApp map[string]float64
}

// Fig9Result aggregates the Ruler validation.
type Fig9Result struct {
	FU        []FURulerCheck
	Linearity []LinearityCheck
}

// Fig9RulerValidationContext validates the Ruler suite on the Ivy Bridge
// machine. Cancellation is cooperative; the intensity-sweep cells fan out
// on the internal/sched worker pool.
func (l *Lab) Fig9RulerValidationContext(ctx context.Context) (Fig9Result, error) {
	var out Fig9Result
	// Functional-unit Rulers: solo runs, check port counters.
	fuRulers := []*rulers.Ruler{rulers.FPMul(), rulers.FPAdd(), rulers.FPShf(), rulers.IntAdd()}
	for _, r := range fuRulers {
		res, err := profile.SoloContext(ctx, l.IVB, profile.Rulers(r, 1), l.Scale.Options)
		if err != nil {
			return Fig9Result{}, err
		}
		c := res.AppCounters[0]
		targets := l.IVB.PortMap[r.TargetKind()]
		check := FURulerCheck{Name: r.Name, TargetUtil: 1}
		for p := isa.Port(0); p < isa.NumPorts; p++ {
			u := c.PortUtilization(p)
			if targets.Has(p) {
				if u < check.TargetUtil {
					check.TargetUtil = u
				}
			} else if u > check.Leakage {
				check.Leakage = u
			}
		}
		check.MemAccesses = c.Loads + c.Stores
		out.FU = append(out.FU, check)
	}

	// Memory Rulers: intensity sweeps against a SPEC population.
	apps := l.specSet(workload.SPECCPU2006())
	points := l.Scale.RulerSweepPoints
	if points < 2 {
		points = 2
	}
	intensities := make([]float64, points)
	for i := range intensities {
		intensities[i] = float64(i+1) / float64(points)
	}
	p := l.Profiler(IvyBridge)
	for _, dim := range []rulers.Dimension{rulers.DimL1, rulers.DimL2, rulers.DimL3} {
		base := rulers.For(l.IVB, dim)
		lc := LinearityCheck{Dim: dim, Intensities: intensities, PerApp: make(map[string]float64)}
		type cell struct {
			app  int
			pt   int
			deg  float64
			solo float64
		}
		cells := make([]cell, 0, len(apps)*points)
		for ai := range apps {
			for pi := range intensities {
				cells = append(cells, cell{app: ai, pt: pi})
			}
		}
		err := sched.Map(ctx, len(cells), l.workers(), func(ctx context.Context, i int) error {
			c := &cells[i]
			app := apps[c.app]
			solo, err := p.SoloRunContext(ctx, profile.App(app))
			if err != nil {
				return err
			}
			r := base.WithIntensity(intensities[c.pt])
			res, err := profile.ColocateContext(ctx, l.IVB, profile.App(app), profile.Rulers(r, 1), profile.SMT, l.Scale.Options)
			if err != nil {
				return err
			}
			c.solo = solo.AppIPC
			c.deg = profile.Degradation(solo.AppIPC, res.AppIPC)
			return nil
		})
		if err != nil {
			return Fig9Result{}, err
		}
		degs := make(map[int][]float64)
		for _, c := range cells {
			degs[c.app] = append(degs[c.app], c.deg)
		}
		var rs []float64
		for ai, app := range apps {
			// Apps the Ruler barely affects contribute no slope signal —
			// their Pearson r is noise around zero. Average over apps with
			// a measurable response, as the paper's sensitivity curves do.
			if stats.Max(degs[ai]) < 0.03 {
				continue
			}
			r, err := stats.Pearson(intensities, degs[ai])
			if err != nil {
				continue // constant series: undefined correlation
			}
			lc.PerApp[app.Name] = r
			rs = append(rs, r)
		}
		lc.MeanR = stats.Mean(rs)
		out.Linearity = append(out.Linearity, lc)
	}
	return out, nil
}

// String renders the validation report.
func (r Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: Ruler validation\n")
	t := newTable("Ruler", "target-port util", "max leakage", "mem accesses")
	for _, c := range r.FU {
		t.row(c.Name, fmt.Sprintf("%.4f%%", c.TargetUtil*100), f3(c.Leakage), fmt.Sprint(c.MemAccesses))
	}
	b.WriteString(t.String())
	t2 := newTable("Ruler", "mean Pearson r (intensity vs degradation)", "paper")
	paper := map[rulers.Dimension]string{rulers.DimL1: "0.92", rulers.DimL2: "0.89", rulers.DimL3: "0.95"}
	for _, c := range r.Linearity {
		t2.row(c.Dim.String(), fmt.Sprintf("%.2f", c.MeanR), paper[c.Dim])
	}
	b.WriteString(t2.String())
	return b.String()
}
