package cluster

import (
	"fmt"
	"math"

	"repro/internal/admit"
	"repro/internal/ctrl/drift"
)

// This file closes the loop inside the discrete-event simulator
// (DESIGN.md §14): DriftSpec injects a mid-run shift of the *measured*
// degradation surface — the ground truth moves, the prediction table does
// not — and PolicyClosedLoop reacts: each shard runs a windowed CUSUM
// detector (internal/ctrl/drift) over its observed-vs-predicted
// degradations, re-characterizes confirmed (lat, batch) pairs against the
// measured surface, re-scores its admission gate through the same
// admit.Evaluate check the static gate was built with, and
// migrates the worst-offending machine's newest instance off the drifted
// cell. Everything is shard-local and event-ordered, so runs stay
// bit-identical at any worker count.

// DriftSpec injects one step change of the measured degradation surface
// at time At: affected cells' actual degradation becomes
// clamp01(ActualDeg·Factor) (and their actual QoS loses proportionally).
// Predictions — the table, the SLO gate — are built pre-drift and go
// stale, which is exactly what the closed loop must detect. A nil spec
// means a stationary world.
type DriftSpec struct {
	// At is the simulated time the shift lands.
	At float64 `json:"at"`
	// Factor scales the affected cells' measured degradation (>1 makes
	// co-locations worse, <1 better; 1 is a no-op).
	Factor float64 `json:"factor"`
	// Batches lists the batch-application indices whose cells shift; nil
	// means every batch application.
	Batches []int `json:"batches,omitempty"`
}

// Validate rejects specs RunSim cannot execute.
func (d *DriftSpec) Validate(nBatch int) error {
	if d == nil {
		return nil
	}
	if math.IsNaN(d.At) || math.IsInf(d.At, 0) || d.At < 0 {
		return fmt.Errorf("cluster: drift time %g must be non-negative and finite", d.At)
	}
	if !(d.Factor > 0) || math.IsInf(d.Factor, 0) {
		return fmt.Errorf("cluster: drift factor %g must be positive and finite", d.Factor)
	}
	for _, b := range d.Batches {
		if b < 0 || b >= nBatch {
			return fmt.Errorf("cluster: drift batch %d outside [0,%d)", b, nBatch)
		}
	}
	return nil
}

// affects reports whether batch application b shifts.
func (d *DriftSpec) affects(b int) bool {
	if len(d.Batches) == 0 {
		return true
	}
	for _, x := range d.Batches {
		if x == b {
			return true
		}
	}
	return false
}

// driftWorld is the precomputed post-drift measured surface, shared
// read-only across shards: the drifted ActualDeg/ActualQoS per cell, and
// — when SLO parameters are set — whether each cell's true post-drift
// tail blows its class budget.
type driftWorld struct {
	at        float64
	actualDeg []float64
	actualQoS []float64
	violate   []bool // non-nil iff SLO parameters are set
}

// buildDriftWorld evaluates the drifted surface once per cell.
func buildDriftWorld(t *PredTable, p *SLOSimParams, spec *DriftSpec) *driftWorld {
	cells := len(t.ActualQoS)
	w := &driftWorld{
		at:        spec.At,
		actualQoS: make([]float64, cells),
	}
	if t.HasDegradations() {
		w.actualDeg = make([]float64, cells)
		copy(w.actualDeg, t.ActualDeg)
	}
	copy(w.actualQoS, t.ActualQoS)
	if p != nil {
		w.violate = make([]bool, cells)
	}
	for l := 0; l < len(t.LatencyApps); l++ {
		var cl SLOSimClass
		if p != nil {
			cl = p.classFor(l)
		}
		for b := 0; b < len(t.BatchApps); b++ {
			shifted := spec.affects(b)
			for n := 1; n <= t.MaxInstances; n++ {
				i := t.Cell(l, b, n)
				if shifted {
					if w.actualDeg != nil {
						w.actualDeg[i] = clamp01(t.ActualDeg[i] * spec.Factor)
					}
					// QoS is 1 − loss; the loss scales with the degradation.
					w.actualQoS[i] = clamp01(1 - (1-t.ActualQoS[i])*spec.Factor)
				}
				if p != nil {
					w.violate[i] = cl.violates(w.actualDeg[i])
				}
			}
		}
	}
	return w
}

// simDriftDetector is the per-shard detector tuning: the synthetic
// world's measurement noise (|actual − predicted| a few thousandths) sits
// well under the allowance, while a drifted cell's excess is tens of
// points per placement, so confirmation lands at the MinSamples floor.
var simDriftDetector = drift.Config{MinSamples: 4, Allowance: 0.02, Threshold: 0.12}

// closedLoop is one shard's mutable copy of the admission surface plus
// its detector — PolicyClosedLoop's working state. Cells re-characterize
// at (lat, batch)-pair granularity: one confirmed detection refreshes the
// pair's whole instance-count column.
type closedLoop struct {
	params *SLOSimParams

	det *drift.Detector

	// Shard-local working surfaces, seeded from the static table/gate and
	// rewritten in place on re-characterization.
	predDeg   []float64
	predBound []float64
	admit     []bool
	slack     []float64

	// gen counts re-characterizations — the shard-local analogue of
	// TieredPredictor's generation counter, echoed on migrate log entries.
	gen uint64
}

// newClosedLoop seeds the working state from the static surfaces.
func newClosedLoop(t *PredTable, g *sloGate, p *SLOSimParams) *closedLoop {
	cells := len(t.PredDeg)
	cl := &closedLoop{
		params:    p,
		det:       drift.New(simDriftDetector),
		predDeg:   make([]float64, cells),
		predBound: make([]float64, cells),
		admit:     make([]bool, cells),
		slack:     make([]float64, cells),
	}
	copy(cl.predDeg, t.PredDeg)
	copy(cl.predBound, t.PredBound)
	copy(cl.admit, g.admit)
	copy(cl.slack, g.slack)
	return cl
}

// pairID keys the detector: one accumulator per (lat, batch) pair.
func (s *shardSim) pairID(lat, b int) int { return lat*s.nBatch + b }

// actualDegAt reads the measured degradation surface in effect at time at.
func (s *shardSim) actualDegAt(at float64, cell int) float64 {
	if s.dw != nil && at >= s.dw.at && s.dw.actualDeg != nil {
		return s.dw.actualDeg[cell]
	}
	return s.t.ActualDeg[cell]
}

// observeClosedLoop feeds one placement's observed degradation to the
// shard's detector and, on confirmation, re-characterizes the pair and
// attempts a migration. Called from place() after the instance landed.
func (s *shardSim) observeClosedLoop(lat, b int, cell int, at float64) {
	cl := s.cl
	observed := s.actualDegAt(at, cell)
	if !cl.det.Observe(s.pairID(lat, b), observed, cl.predDeg[cell], cl.predBound[cell]) {
		return
	}
	s.res.detections++
	s.recharacterize(lat, b, at)
	s.migrateWorst(lat, b, at)
}

// recharacterize refreshes a confirmed pair's whole instance-count column
// against the measured surface — the simulator's analogue of routing the
// flagged app back through the characterization sweep — and re-scores the
// admission gate with the same admit check the static gate used, now with
// a zero bound (the refreshed cells are measured, not predicted).
func (s *shardSim) recharacterize(lat, b int, at float64) {
	cl := s.cl
	slo := cl.params.classFor(lat)
	class := slo.class()
	for n := 1; n <= s.maxInst; n++ {
		i := s.t.Cell(lat, b, n)
		cl.predDeg[i] = s.actualDegAt(at, i)
		cl.predBound[i] = 0
		dec := admit.Evaluate(cl.predDeg[i], 0, slo.Mu, slo.Lambda, class, cl.params.Headroom)
		cl.admit[i] = dec.Admitted
		cl.slack[i] = dec.EffectiveBudget - dec.Tail
	}
	cl.gen++
	cl.det.Reset(s.pairID(lat, b))
	s.res.recharacterized++
}

// migrateWorst re-scores the pair's occupied cells through the refreshed
// gate, picks the worst still-occupied offender (most negative slack
// among now-inadmissible cells, lowest machine id within the bucket), and
// moves its newest instance to the machine the refreshed admission policy
// would pick — a logged, typed decision, so replays stay bit-identical.
func (s *shardSim) migrateWorst(lat, b int, at float64) {
	cl := s.cl
	worstState, worstSlack := -1, math.Inf(1)
	for n := s.maxInst; n >= 1; n-- {
		state := s.bucketIdx(0, 0, lat, 1+b, n)
		if s.buckets[state].Len() == 0 {
			continue
		}
		cell := s.t.Cell(lat, b, n)
		if cl.admit[cell] {
			continue
		}
		if sl := cl.slack[cell]; sl < worstSlack {
			worstSlack = sl
			worstState = state
		}
	}
	if worstState < 0 {
		return
	}
	s.migrate(int32(s.buckets[worstState].Min().handle), worstState, b, at)
}
