package cluster

import (
	"fmt"
	"math"

	"repro/internal/admit"
	"repro/internal/queueing"
)

// This file wires the predictive SLO admission gate (internal/admit,
// DESIGN.md §13) into the discrete-event simulator as PolicySLO: instead
// of a QoS-floor best-fit, placements are admitted against per-class
// tail-latency budgets using the error-bound-inflated Eq. 6 estimate —
// exactly the check POST /v1/admit runs, evaluated once per
// (lat, batch, n) cell so the event loop stays pure array lookups.

// SLOSimClass maps one latency application population onto an SLO class:
// the admit.Class budget/percentile pair plus the service's M/M/1 rates,
// which the serving daemon receives per-request but the simulator must
// fix up front.
type SLOSimClass struct {
	Name       string  `json:"name"`
	Budget     float64 `json:"budget"` // seconds
	Percentile float64 `json:"percentile"`
	// Mu and Lambda are the class's solo per-thread service and arrival
	// rates (requests/second).
	Mu     float64 `json:"mu"`
	Lambda float64 `json:"lambda"`
}

// class is the admission class the simulated population is gated by.
func (c SLOSimClass) class() admit.Class {
	return admit.Class{Name: c.Name, Budget: c.Budget, Percentile: c.Percentile}
}

// violates reports whether a measured degradation actually blows the
// class budget: the true Eq. 6 tail against the full budget, with no
// bound inflation and no headroom.
func (c SLOSimClass) violates(deg float64) bool {
	return !(queueing.DegradedPercentile(c.Percentile, c.Mu, c.Lambda, deg) <= c.Budget)
}

// SLOSimParams parameterises SLO-gated simulation. Latency app i is
// assigned Classes[i % len(Classes)], so the canonical three-class set
// spreads round-robin over any population size.
type SLOSimParams struct {
	Classes []SLOSimClass `json:"classes"`
	// Headroom shrinks every budget to Budget·(1−Headroom) for admission
	// (violation accounting uses the full budget).
	Headroom float64 `json:"headroom"`
	// ScaleUpThreshold / ScaleDownThreshold parameterise the Summary's
	// saturation signal; zero picks admit's defaults.
	ScaleUpThreshold   float64 `json:"scale_up_threshold,omitempty"`
	ScaleDownThreshold float64 `json:"scale_down_threshold,omitempty"`
}

func (p *SLOSimParams) withDefaults() *SLOSimParams {
	if p == nil {
		return nil
	}
	q := *p
	if q.ScaleUpThreshold == 0 {
		q.ScaleUpThreshold = admit.DefaultScaleUpThreshold
	}
	if q.ScaleDownThreshold == 0 {
		q.ScaleDownThreshold = admit.DefaultScaleDownThreshold
	}
	return &q
}

// Validate rejects parameter sets the gate cannot evaluate: the class
// set fails admit.ValidateClasses, or a class's queue rates are not
// positive and finite.
func (p *SLOSimParams) Validate() error {
	if p == nil {
		return fmt.Errorf("cluster: SLO policy needs SLO parameters")
	}
	q := p.withDefaults()
	classes := make([]admit.Class, len(q.Classes))
	for i, cl := range q.Classes {
		if !(cl.Mu > 0 && cl.Lambda > 0) || math.IsInf(cl.Mu, 1) || math.IsInf(cl.Lambda, 1) {
			return fmt.Errorf("cluster: SLO class %q queue rates must be positive and finite (mu=%g, lambda=%g)",
				cl.Name, cl.Mu, cl.Lambda)
		}
		classes[i] = cl.class()
	}
	if err := admit.ValidateClasses(classes, q.Headroom, q.ScaleUpThreshold, q.ScaleDownThreshold); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// classFor returns the class assigned to latency application index lat.
func (p *SLOSimParams) classFor(lat int) SLOSimClass {
	return p.Classes[lat%len(p.Classes)]
}

// sloGate is the precomputed per-cell admission surface: for every
// (lat, batch, n) cell of the PredTable, whether the inflated predicted
// tail fits the effective budget, the admission slack used for best-fit
// scoring, and whether the *measured* degradation actually violates the
// class budget (the violation the Summary counts, for every policy run
// under SLO parameters — so greedy-vs-SLO comparisons count violations
// identically).
type sloGate struct {
	admit   []bool
	slack   []float64 // effectiveBudget − predictedTail; valid where admit
	violate []bool
}

// buildSLOGate evaluates the admission check once per cell of a table
// carrying the degradation surface (SimConfig.Validate rejects SLO runs
// over tables without one).
func buildSLOGate(t *PredTable, p *SLOSimParams) *sloGate {
	cells := len(t.PredDeg)
	g := &sloGate{
		admit:   make([]bool, cells),
		slack:   make([]float64, cells),
		violate: make([]bool, cells),
	}
	for l := 0; l < len(t.LatencyApps); l++ {
		cl := p.classFor(l)
		class := cl.class()
		for b := 0; b < len(t.BatchApps); b++ {
			for n := 1; n <= t.MaxInstances; n++ {
				i := t.Cell(l, b, n)
				dec := admit.Evaluate(t.PredDeg[i], t.PredBound[i], cl.Mu, cl.Lambda, class, p.Headroom)
				g.admit[i] = dec.Admitted
				g.slack[i] = dec.EffectiveBudget - dec.Tail
				g.violate[i] = cl.violates(t.ActualDeg[i])
			}
		}
	}
	return g
}
