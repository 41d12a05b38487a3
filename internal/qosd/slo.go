package qosd

import (
	"fmt"
	"sync"

	"repro/internal/admit"
	"repro/internal/isol"
)

// This file is the daemon half of the predictive SLO admission gate
// (DESIGN.md §13): the SLO configuration POST /v1/admit serves, the
// wire names of the pure admission math in internal/admit, the isolation
// remedy search, and the saturation analyzer that turns the recent
// admit/reject stream into a capacity-vs-demand scaling signal.

// SLOConfig parameterises the admission gate.
type SLOConfig struct {
	// Classes are the admissible SLO classes; requests name one.
	Classes []admit.Class `json:"classes"`
	// Headroom reserves a fraction of every class budget in [0, 1): the
	// gate admits against Budget·(1−Headroom), so predictions that land
	// within Headroom of the budget are rejected as too close to call.
	Headroom float64 `json:"headroom"`
	// ScaleUpThreshold and ScaleDownThreshold bracket the saturation
	// analyzer's signal: a windowed rejection rate at or above the first
	// means demand exceeds capacity (scale up), at or below the second
	// means capacity is slack (scale down). Zero values pick
	// DefaultScaleUpThreshold / DefaultScaleDownThreshold.
	ScaleUpThreshold   float64 `json:"scale_up_threshold,omitempty"`
	ScaleDownThreshold float64 `json:"scale_down_threshold,omitempty"`
	// Window is the number of recent decisions the analyzer's rejection
	// rate is computed over (0 = DefaultSaturationWindow).
	Window int `json:"window,omitempty"`
}

// DefaultSaturationWindow is the analyzer's window when Window is zero.
const DefaultSaturationWindow = 256

// DefaultSLOClasses returns the canonical three-class set: critical
// (20 ms p95), standard (60 ms p95), sheddable (150 ms p90).
func DefaultSLOClasses() []admit.Class {
	return []admit.Class{
		{Name: "critical", Budget: 0.020, Percentile: 0.95},
		{Name: "standard", Budget: 0.060, Percentile: 0.95},
		{Name: "sheddable", Budget: 0.150, Percentile: 0.90},
	}
}

func (c SLOConfig) withDefaults() SLOConfig {
	if len(c.Classes) == 0 {
		c.Classes = DefaultSLOClasses()
	}
	if c.ScaleUpThreshold == 0 {
		c.ScaleUpThreshold = admit.DefaultScaleUpThreshold
	}
	if c.ScaleDownThreshold == 0 {
		c.ScaleDownThreshold = admit.DefaultScaleDownThreshold
	}
	if c.Window <= 0 {
		c.Window = DefaultSaturationWindow
	}
	return c
}

// Validate rejects configurations the gate cannot serve. Constructors
// (cmd/smited) call it before NewServer; NewServer itself trusts the
// config.
func (c SLOConfig) Validate() error {
	c = c.withDefaults()
	if err := admit.ValidateClasses(c.Classes, c.Headroom, c.ScaleUpThreshold, c.ScaleDownThreshold); err != nil {
		return fmt.Errorf("qosd: %w", err)
	}
	return nil
}

// Class resolves a class by name.
func (c SLOConfig) Class(name string) (admit.Class, bool) {
	for _, cl := range c.Classes {
		if cl.Name == name {
			return cl, true
		}
	}
	return admit.Class{}, false
}

// Admission reasons, reported in AdmitResponse.Reason: the /v1/admit
// wire values of admit's reasons.
const (
	AdmitReasonOK             = admit.ReasonOK
	AdmitReasonBudgetExceeded = admit.ReasonBudgetExceeded
	AdmitReasonSaturated      = admit.ReasonSaturated
)

// AdmitDecision is the outcome of one EvaluateAdmission call.
type AdmitDecision = admit.Decision

// EvaluateAdmission is the admission check behind POST /v1/admit; see
// admit.Evaluate.
func EvaluateAdmission(deg, bound, mu, lambda float64, class admit.Class, headroom float64) AdmitDecision {
	return admit.Evaluate(deg, bound, mu, lambda, class, headroom)
}

// SuggestIsolation is the remedy search behind a rejected admission:
// walk the enforcement ladder from its weakest engaged level and return
// the first one whose DegScale — applied to both the prediction and its
// error bound, exactly as the cluster simulator scales a machine's
// degradation surface — turns the decision into an admit. Returns nil
// when no level clears the budget (the ladder cannot save this pair) or
// when the ladder has no engaged levels. A nil levels slice means the
// stock isol.DefaultSettings ladder.
//
// Because ValidateSettings pins DegScale as non-increasing across the
// ladder, the first admitting level is also the cheapest in throughput
// tax — the suggestion is always the minimal actuation.
func SuggestIsolation(deg, bound, mu, lambda float64, class admit.Class, headroom float64, levels []isol.Setting) *IsolationRemedy {
	if levels == nil {
		levels = isol.DefaultSettings()
	}
	for l := 1; l < len(levels); l++ {
		scale := levels[l].DegScale
		d := admit.Evaluate(deg*scale, bound*scale, mu, lambda, class, headroom)
		if d.Admitted {
			return &IsolationRemedy{
				Level:                l,
				Setting:              levels[l],
				EffectiveDegradation: d.EffectiveDegradation,
				TailLatency:          d.Tail,
			}
		}
	}
	return nil
}

// sloClassCounters accumulates one class's lifetime decisions.
type sloClassCounters struct {
	admitted, rejected uint64
}

// sloAnalyzer is the daemon's saturation analyzer: lifetime per-class
// counters plus a fixed-size ring of the most recent decisions, whose
// rejection rate drives the capacity-vs-demand signal.
type sloAnalyzer struct {
	cfg SLOConfig

	mu      sync.Mutex
	classes map[string]*sloClassCounters
	ring    []bool // true = rejected
	next    int
	filled  int
}

func newSLOAnalyzer(cfg SLOConfig) *sloAnalyzer {
	return &sloAnalyzer{
		cfg:     cfg,
		classes: make(map[string]*sloClassCounters, len(cfg.Classes)),
		ring:    make([]bool, cfg.Window),
	}
}

func (a *sloAnalyzer) record(class string, admitted bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.classes[class]
	if c == nil {
		c = &sloClassCounters{}
		a.classes[class] = c
	}
	if admitted {
		c.admitted++
	} else {
		c.rejected++
	}
	a.ring[a.next] = !admitted
	a.next = (a.next + 1) % len(a.ring)
	if a.filled < len(a.ring) {
		a.filled++
	}
}

// rejectionRate returns the windowed rejection rate and the number of
// decisions in the window.
func (a *sloAnalyzer) rejectionRate() (float64, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejectionRateLocked()
}

func (a *sloAnalyzer) rejectionRateLocked() (float64, int) {
	if a.filled == 0 {
		return 0, 0
	}
	rejected := 0
	for i := 0; i < a.filled; i++ {
		if a.ring[i] {
			rejected++
		}
	}
	return float64(rejected) / float64(a.filled), a.filled
}

// report snapshots the analyzer for the JSON /metrics payload.
func (a *sloAnalyzer) report() *SLOMetricsReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	rate, window := a.rejectionRateLocked()
	out := &SLOMetricsReport{
		Headroom: a.cfg.Headroom,
		Classes:  make(map[string]SLOClassMetrics, len(a.classes)),
		Saturation: SaturationReport{
			Window:             window,
			RejectionRate:      rate,
			Signal:             admit.SaturationSignal(rate, a.cfg.ScaleUpThreshold, a.cfg.ScaleDownThreshold),
			ScaleUpThreshold:   a.cfg.ScaleUpThreshold,
			ScaleDownThreshold: a.cfg.ScaleDownThreshold,
		},
	}
	for name, c := range a.classes {
		out.Classes[name] = SLOClassMetrics{Admitted: c.admitted, Rejected: c.rejected}
	}
	return out
}
