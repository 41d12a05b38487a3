// Package admit is the predictive SLO admission gate as pure math
// (DESIGN.md §13): SLO classes, the Eq. 6 budget check, the one class-set
// validation, the class-spec grammar and the saturation signal. The qosd
// daemon serves it at POST /v1/admit and the cluster simulator evaluates
// it per co-location cell; both import this leaf package. Errors carry no
// package prefix: callers add their own.
package admit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/queueing"
)

// Class is one quality-of-service class an admission request names: a
// tail-latency budget at a percentile. Any set of uniquely-named classes
// works.
type Class struct {
	// Name identifies the class in requests and metrics.
	Name string `json:"name"`
	// Budget is the tail-latency budget in seconds: the largest Eq. 6
	// percentile latency the class tolerates.
	Budget float64 `json:"budget"`
	// Percentile is the SLO percentile in (0,1) the budget applies to
	// (0.95 means "95th-percentile latency within Budget").
	Percentile float64 `json:"percentile"`
}

// Saturation-signal defaults: a rejection rate at or above the scale-up
// threshold means demand exceeds capacity, at or below the scale-down
// threshold means capacity is slack.
const (
	DefaultScaleUpThreshold   = 0.2
	DefaultScaleDownThreshold = 0.05
)

// ValidateClasses rejects class sets the gate cannot evaluate: an empty
// set, an empty or duplicate name, a non-positive or non-finite budget, a
// percentile outside (0,1), a headroom outside [0,1), or a scale-up
// threshold not above the scale-down threshold. Thresholds are taken as
// given; callers resolve zero values to the defaults first.
func ValidateClasses(classes []Class, headroom, scaleUp, scaleDown float64) error {
	if len(classes) == 0 {
		return fmt.Errorf("SLO parameters need at least one class")
	}
	seen := make(map[string]bool, len(classes))
	for _, cl := range classes {
		if cl.Name == "" {
			return fmt.Errorf("SLO class with empty name")
		}
		if seen[cl.Name] {
			return fmt.Errorf("duplicate class %q", cl.Name)
		}
		seen[cl.Name] = true
		if !(cl.Budget > 0) || math.IsInf(cl.Budget, 0) {
			return fmt.Errorf("SLO class %q budget %g must be positive and finite", cl.Name, cl.Budget)
		}
		if cl.Percentile <= 0 || cl.Percentile >= 1 {
			return fmt.Errorf("SLO class %q percentile %g outside (0,1)", cl.Name, cl.Percentile)
		}
	}
	if headroom < 0 || headroom >= 1 || math.IsNaN(headroom) {
		return fmt.Errorf("SLO headroom %g outside [0,1)", headroom)
	}
	if scaleUp <= scaleDown {
		return fmt.Errorf("scale-up threshold %g must exceed scale-down threshold %g", scaleUp, scaleDown)
	}
	return nil
}

// ParseClasses parses a comma-separated class spec of the form
// "name:budget[:percentile]" — budget as a Go duration ("20ms"),
// percentile defaulting to 0.95 — e.g.
// "critical:20ms:0.95,standard:60ms:0.95,sheddable:150ms:0.90".
// Both cmd/smited (-slo-config) and cmd/clustersim (-slo-classes) parse
// their flags through this one function so the two CLIs reject exactly
// the same malformed specs; the parsed set must pass ValidateClasses.
func ParseClasses(spec string) ([]Class, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty SLO class spec")
	}
	var classes []Class
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty class entry in %q", spec)
		}
		fields := strings.Split(part, ":")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("class %q is not name:budget[:percentile]", part)
		}
		name := strings.TrimSpace(fields[0])
		budget, err := time.ParseDuration(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("class %q: budget: %v", name, err)
		}
		p := 0.95
		if len(fields) == 3 {
			p, err = strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("class %q: percentile: %v", name, err)
			}
		}
		classes = append(classes, Class{Name: name, Budget: budget.Seconds(), Percentile: p})
	}
	// A spec carries no headroom or thresholds; check the classes alone.
	if err := ValidateClasses(classes, 0, DefaultScaleUpThreshold, DefaultScaleDownThreshold); err != nil {
		return nil, err
	}
	return classes, nil
}

// Admission reasons, reported in Decision.Reason.
const (
	// ReasonOK: the inflated tail estimate fits the effective budget.
	ReasonOK = "ok"
	// ReasonBudgetExceeded: the queue stays stable but the inflated Eq. 6
	// tail estimate exceeds Budget·(1−Headroom).
	ReasonBudgetExceeded = "budget_exceeded"
	// ReasonSaturated: the inflated degradation pushes the queue at or
	// past saturation (μ' ≤ λ) — tail latency is unbounded, so the
	// co-location is rejected for every finite budget.
	ReasonSaturated = "saturated"
)

// Decision is the outcome of one Evaluate call.
type Decision struct {
	// Admitted reports whether the co-location fits the class budget.
	Admitted bool
	// Reason is one of the Reason* constants.
	Reason string
	// EffectiveDegradation is the budget-checked degradation: the
	// prediction inflated by its error bound (bound is 0 on engine-tier
	// answers, so inflation only applies to surrogate answers).
	EffectiveDegradation float64
	// Tail is the Eq. 6 percentile latency at the inflated degradation,
	// in seconds; +Inf when Saturated.
	Tail float64
	// EffectiveBudget is Budget·(1−Headroom), the value Tail was checked
	// against.
	EffectiveBudget float64
	// Saturated reports an unbounded tail (μ' ≤ λ at the inflated
	// degradation, or a non-finite degradation).
	Saturated bool
}

// Evaluate is the pure admission check: inflate the predicted
// degradation by its error bound, run it through Equation 6 at the class
// percentile, and admit only if the resulting tail estimate fits the
// class budget minus the headroom. Saturated queues — including deg = 1
// exactly and non-finite degradations from corrupt profiles — are always
// rejected.
//
// The check is deliberately conservative on both axes: the error bound
// is added (the surrogate may have under-predicted) and the budget is
// shrunk by the headroom (the model may be wrong in ways the bound does
// not capture). internal/simtest pins the resulting monotonicity laws:
// a tighter budget or a larger headroom never admits what the looser
// setting rejected.
func Evaluate(deg, bound, mu, lambda float64, class Class, headroom float64) Decision {
	if headroom < 0 || math.IsNaN(headroom) {
		headroom = 0
	}
	d := Decision{
		EffectiveDegradation: deg + bound,
		EffectiveBudget:      class.Budget * (1 - headroom),
	}
	d.Tail = queueing.DegradedPercentile(class.Percentile, mu, lambda, d.EffectiveDegradation)
	switch {
	case math.IsInf(d.Tail, 1):
		d.Saturated = true
		d.Reason = ReasonSaturated
	case d.Tail <= d.EffectiveBudget:
		d.Admitted = true
		d.Reason = ReasonOK
	default:
		d.Reason = ReasonBudgetExceeded
	}
	return d
}

// Saturation signals, reported by the daemon's analyzer and the
// simulator's Summary.
const (
	// SignalScaleUp: rejection rate at or above the scale-up threshold —
	// demand exceeds the fleet's admissible capacity.
	SignalScaleUp = "scale_up"
	// SignalSteady: rejection rate between the thresholds.
	SignalSteady = "steady"
	// SignalScaleDown: rejection rate at or below the scale-down
	// threshold — capacity is slack.
	SignalScaleDown = "scale_down"
)

// SaturationSignal maps a rejection rate onto a scaling signal given the
// two thresholds.
func SaturationSignal(rejectionRate, scaleUp, scaleDown float64) string {
	switch {
	case rejectionRate >= scaleUp:
		return SignalScaleUp
	case rejectionRate <= scaleDown:
		return SignalScaleDown
	default:
		return SignalSteady
	}
}
