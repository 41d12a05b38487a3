package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/linalg"
	"repro/internal/profile"
)

// Fig13Row is one latency application's tail-latency prediction accuracy.
type Fig13Row struct {
	App string
	// CalMu and CalLambda are the queue parameters calibrated from the
	// Ruler co-location profiles (the paper trains Equation 6 on the
	// Ruler-degradation/latency points).
	CalMu, CalLambda float64
	// MeanAbsRelErr is the mean |predicted − measured|/measured of the
	// 90th-percentile latency across co-locations.
	MeanAbsRelErr float64
	// Cells carries the individual points for inspection.
	Cells []Fig13Cell
}

// Fig13Cell is one co-location's tail-latency comparison.
type Fig13Cell struct {
	Batch       string
	Instances   int
	ActualDeg   float64
	PredDeg     float64
	MeasuredP90 float64
	PredP90     float64
}

// Fig13Result reproduces Figure 13: 90th-percentile latency prediction for
// Web-Search and Data-Caching (the two CloudSuite services that report
// percentile statistics).
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13TailLatencyContext runs the experiment: the queueing model is
// calibrated per service from its Ruler characterization (degradation →
// simulated p90 points), then used to predict the p90 under SPEC batch
// co-locations; the "measured" p90 comes from the queue simulator driven by
// the measured degradation.
func (l *Lab) Fig13TailLatencyContext(ctx context.Context) (Fig13Result, error) {
	cs, err := l.cloudStudyData(ctx)
	if err != nil {
		return Fig13Result{}, err
	}
	chars, err := l.Profiler(SandyBridgeEN).CharacterizeAllContext(ctx, l.allAppsSet(), profile.SMT)
	if err != nil {
		return Fig13Result{}, err
	}
	charBy := make(map[string]profile.Characterization)
	for _, c := range chars {
		charBy[c.App] = c
	}

	var out Fig13Result
	for _, lat := range cs.latApps {
		svc, ok := cs.services[lat]
		if !ok || !svc.ReportsPercentile {
			continue // Data-Serving and Graph-Analytics export no percentiles
		}
		ch, ok := charBy[lat]
		if !ok {
			return Fig13Result{}, fmt.Errorf("experiments: no characterization for %s", lat)
		}
		// Calibration: the Ruler sensitivities give a spread of
		// degradations; simulating the service at each yields (deg, p90)
		// points; Equation 6 linearises as
		//   −ln(1−p)/t = μ·(1−deg) − λ,
		// so μ̂ and λ̂ come from a two-parameter least squares.
		var xs [][]float64
		var ys []float64
		seedBase := uint64(1000 + len(out.Rows))
		calPoints := append([]float64{0}, ch.Sen[:]...)
		for i, deg := range calPoints {
			if deg < 0 {
				deg = 0
			}
			if (1-deg)*svc.Mu <= svc.Lambda {
				continue // saturated points carry no calibration signal
			}
			p90, err := svc.MeasureTail(deg, l.Scale.TailRequests, seedBase+uint64(i))
			if err != nil {
				return Fig13Result{}, err
			}
			if p90 <= 0 {
				continue
			}
			xs = append(xs, []float64{1 - deg, -1})
			ys = append(ys, ln1p90(svc.QoSPercentile)/p90)
		}
		beta, err := linalg.LeastSquares(xs, ys, 1e-9)
		if err != nil {
			return Fig13Result{}, fmt.Errorf("experiments: tail calibration for %s: %w", lat, err)
		}
		muHat, lambdaHat := beta[0], beta[1]
		row := Fig13Row{App: lat, CalMu: muHat, CalLambda: lambdaHat}

		var errSum float64
		n := 0
		for _, e := range cs.placementTables[profile.SMT] {
			if e.lat != lat {
				continue
			}
			if (1-e.actual)*svc.Mu <= svc.Lambda {
				continue // measured saturation: latency unbounded
			}
			measured, err := svc.MeasureTail(clamp01(e.actual), l.Scale.TailRequests, seedBase^uint64(n+7))
			if err != nil {
				return Fig13Result{}, err
			}
			pred := predictTail(svc.QoSPercentile, muHat, lambdaHat, clamp01(e.predicted))
			cell := Fig13Cell{
				Batch: e.batch, Instances: e.n,
				ActualDeg: e.actual, PredDeg: e.predicted,
				MeasuredP90: measured, PredP90: pred,
			}
			row.Cells = append(row.Cells, cell)
			if measured > 0 && pred > 0 {
				errSum += abs(pred-measured) / measured
				n++
			}
		}
		if n > 0 {
			row.MeanAbsRelErr = errSum / float64(n)
		}
		sort.Slice(row.Cells, func(a, b int) bool {
			if row.Cells[a].Batch != row.Cells[b].Batch {
				return row.Cells[a].Batch < row.Cells[b].Batch
			}
			return row.Cells[a].Instances < row.Cells[b].Instances
		})
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// ln1p90 is −ln(1−p), the numerator of Equation 6.
func ln1p90(p float64) float64 { return -math.Log(1 - p) }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 0.99 {
		return 0.99
	}
	return x
}

// predictTail evaluates Equation 6 with calibrated parameters.
func predictTail(p, mu, lambda, deg float64) float64 {
	d := (1-deg)*mu - lambda
	if d <= 0 {
		return 0
	}
	return ln1p90(p) / d
}

// String renders the figure.
func (r Fig13Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 13: 90th-percentile latency prediction\n")
	t := newTable("application", "calibrated mu", "calibrated lambda", "mean |pred-meas|/meas", "paper")
	paper := map[string]string{"web-search": "4.61%", "data-caching": "6.17%"}
	for _, row := range r.Rows {
		t.row(row.App, fmt.Sprintf("%.0f", row.CalMu), fmt.Sprintf("%.0f", row.CalLambda), pct(row.MeanAbsRelErr), paper[row.App])
	}
	b.WriteString(t.String())
	return b.String()
}
