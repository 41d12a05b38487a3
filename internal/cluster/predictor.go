package cluster

import (
	"fmt"
	"sync/atomic"

	"repro/internal/surrogate"
)

// Prediction tiers, reported in Prediction.Tier. The qosd daemon reports
// the same strings on its wire responses, so a scheduler can audit which
// tier answered regardless of whether it consulted the seam in-process or
// over HTTP.
const (
	// TierTable: answered from an engine-measured degradation table — the
	// authoritative surface, carrying no error bound.
	TierTable = "table"
	// TierSurrogate: answered in microseconds from fitted surrogate
	// curves; the prediction carries the propagated error bound.
	TierSurrogate = "surrogate"
)

// Prediction is the answer of the Predictor seam: the predicted
// degradation plus the error bound (zero on measured answers), the
// serving tier, and the generation of the predictor state
// that produced it (non-zero only for hot-swappable predictors, so a
// closed-loop controller can tell stale answers from refreshed ones).
type Prediction struct {
	// Deg is the predicted degradation (0.07 = 7% slower).
	Deg float64
	// Bound is an upper bound on the answer's deviation from the
	// engine-measured truth; zero when the answer is the measured surface
	// itself. The SLO admission policy inflates predictions by this bound
	// before checking them against tail-latency budgets.
	Bound float64
	// Tier reports which tier produced the answer (Tier* constants).
	Tier string
	// Gen is the serving predictor's generation counter at answer time;
	// zero for predictors without hot-swappable state.
	Gen uint64
}

// Predictor supplies predicted degradations — the surrogate tier, the
// measured table, or the two tiered — for BuildPredTable to precompute
// the simulator's surface from. Implementations must be deterministic
// for a given (lat, batch, n) and safe for concurrent use
// (BuildPredTable fans cells across workers).
type Predictor interface {
	// Predict returns the latency application's predicted degradation —
	// with its bound, tier and generation — when co-located with n
	// instances of the batch application.
	Predict(lat, batch string, n int) (Prediction, error)
}

// TablePredictor serves the Predictor seam from a degradation Table's
// baked-in Predicted entries — the engine-measured prediction surface the
// scale-out studies use. It is the ground-truth fallback of the tiered
// predictor below.
type TablePredictor struct {
	Table *Table
}

// Predict implements Predictor; table answers are the measured surface,
// so the bound is zero.
func (p *TablePredictor) Predict(lat, batch string, n int) (Prediction, error) {
	e, err := p.Table.Get(lat, batch, n)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Deg: e.Predicted, Tier: TierTable}, nil
}

// SurrogatePredictor adapts a fitted surrogate.Set with an embedded
// Equation 3 model to the Predictor seam, answering in microseconds
// without touching the engine. Instance-count dependence is modelled
// analytically on the surrogate curves: n stacked instances of the batch
// application exert its contentiousness curves evaluated at intensity
// n/Capacity (more siblings, more pressure, saturating at full
// occupancy), and — mirroring model.Smite.PredictPartial — the intercept,
// which must vanish at n = 0, is scaled by the occupied fraction. The
// victim's sensitivities are its full-intensity values, as in the
// pairwise surrogate path.
type SurrogatePredictor struct {
	Set *surrogate.Set
	// Capacity is the number of idle sibling contexts instances stack on
	// (the study's ContextsPerServer − ThreadsPerServer).
	Capacity int
}

// predict returns the surrogate answer with its propagated error bound:
// surrogate.Set.PredictAt with the aggressor at occupancy n/Capacity.
func (p *SurrogatePredictor) predict(lat, batch string, n int) (surrogate.Prediction, error) {
	if p.Set == nil || p.Set.Eq3 == nil {
		return surrogate.Prediction{}, fmt.Errorf("cluster: surrogate predictor needs a set with an embedded Eq3 model")
	}
	if p.Capacity <= 0 {
		return surrogate.Prediction{}, fmt.Errorf("cluster: surrogate predictor capacity must be positive, got %d", p.Capacity)
	}
	x := float64(n) / float64(p.Capacity)
	if x > 1 {
		x = 1
	}
	return p.Set.PredictAt(*p.Set.Eq3, lat, batch, x)
}

// Predict implements Predictor with the propagated surrogate certificate.
func (p *SurrogatePredictor) Predict(lat, batch string, n int) (Prediction, error) {
	pred, err := p.predict(lat, batch, n)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Deg: pred.Degradation, Bound: pred.Bound, Tier: TierSurrogate}, nil
}

// tierState is the hot-swappable half of a TieredPredictor: the surrogate
// tier plus the generation that produced it. Readers load it once per
// Predict call, so a concurrent Swap never tears an in-flight answer.
type tierState struct {
	sur *SurrogatePredictor
	gen uint64
}

// TieredPredictor is the qosd serving policy at the Predictor seam:
// answer from the surrogate tier when its certificate clears the accuracy
// budget, fall back to the (engine-measured) predictor otherwise. The
// cluster simulator consults the seam only once per distinct
// (lat, batch, n) cell — BuildPredTable memoizes the surface — so even
// the fallback path costs a handful of calls per run.
//
// The surrogate tier is hot-swappable: a closed-loop controller that
// re-characterizes drifted applications installs the refreshed set with
// Swap/SwapModels, which bumps the generation counter stamped on every
// answer — in-flight predictions keep the set they started with, and
// consumers can tell pre- from post-refresh answers by Prediction.Gen.
type TieredPredictor struct {
	// Fallback answers when the surrogate bound is too loose or the
	// surrogate has no model for an application.
	Fallback Predictor

	state atomic.Pointer[tierState]
}

// DefaultTierThreshold is the largest surrogate error bound a
// TieredPredictor serves. It matches qosd.DefaultSurrogateThreshold:
// bounds above five degradation points fall back to measured predictions.
const DefaultTierThreshold = 0.05

// NewTieredPredictor builds the two-tier predictor: sur answers when its
// bound clears DefaultTierThreshold, fallback otherwise. The initial
// surrogate state is generation 1.
func NewTieredPredictor(sur *SurrogatePredictor, fallback Predictor) *TieredPredictor {
	t := &TieredPredictor{Fallback: fallback}
	t.state.Store(&tierState{sur: sur, gen: 1})
	return t
}

// Generation returns the current surrogate-tier generation: 1 at
// construction, bumped by every Swap/SwapModels, 0 for a zero-value
// TieredPredictor that never had a surrogate tier.
func (t *TieredPredictor) Generation() uint64 {
	if st := t.state.Load(); st != nil {
		return st.gen
	}
	return 0
}

// Swap atomically replaces the whole surrogate set behind the tier and
// returns the bumped generation. The capacity carries over from the
// current state (or is taken as-is when the tier had none); a nil set
// disables the surrogate tier until the next swap.
func (t *TieredPredictor) Swap(set *surrogate.Set) uint64 {
	for {
		old := t.state.Load()
		next := &tierState{gen: 1}
		if old != nil {
			next.gen = old.gen + 1
		}
		if set != nil {
			capacity := 0
			if old != nil && old.sur != nil {
				capacity = old.sur.Capacity
			}
			next.sur = &SurrogatePredictor{Set: set, Capacity: capacity}
		}
		if t.state.CompareAndSwap(old, next) {
			return next.gen
		}
	}
}

// SwapModels installs refreshed surrogate models for just the given
// applications — the targeted re-characterization path: the current set
// is copied, the flagged apps' models replaced, and the copy swapped in
// under a bumped generation. Apps absent from the current set are added.
// Returns the new generation, or the unchanged current generation when
// models is empty or the tier has no surrogate set to refresh.
func (t *TieredPredictor) SwapModels(models map[string]*surrogate.Model) uint64 {
	if len(models) == 0 {
		return t.Generation()
	}
	for {
		old := t.state.Load()
		if old == nil || old.sur == nil || old.sur.Set == nil {
			return t.Generation()
		}
		cur := old.sur.Set
		set := &surrogate.Set{
			Machine:   cur.Machine,
			Placement: cur.Placement,
			Eq3:       cur.Eq3,
			Models:    make(map[string]*surrogate.Model, len(cur.Models)+len(models)),
		}
		for app, m := range cur.Models {
			set.Models[app] = m
		}
		for app, m := range models {
			set.Models[app] = m
		}
		next := &tierState{
			sur: &SurrogatePredictor{Set: set, Capacity: old.sur.Capacity},
			gen: old.gen + 1,
		}
		if t.state.CompareAndSwap(old, next) {
			return next.gen
		}
	}
}

// Predict implements Predictor: surrogate answers carry their certificate
// and tier, fallback answers keep the fallback's own bound and tier (zero
// bound for the measured table). Every answer is stamped with the tier's
// current generation.
func (t *TieredPredictor) Predict(lat, batch string, n int) (Prediction, error) {
	st := t.state.Load()
	var gen uint64
	if st != nil {
		gen = st.gen
	}
	if st != nil && st.sur != nil {
		if pred, err := st.sur.predict(lat, batch, n); err == nil && pred.Bound <= DefaultTierThreshold {
			return Prediction{Deg: pred.Degradation, Bound: pred.Bound, Tier: TierSurrogate, Gen: gen}, nil
		}
	}
	if t.Fallback == nil {
		return Prediction{}, fmt.Errorf("cluster: tiered predictor has no fallback for %s|%s|%d", lat, batch, n)
	}
	pred, err := t.Fallback.Predict(lat, batch, n)
	if err != nil {
		return Prediction{}, err
	}
	pred.Gen = gen
	return pred, nil
}
