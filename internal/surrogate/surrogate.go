// Package surrogate is the learned analytical tier above the cycle-level
// engine: closed-form curves fitted from engine intensity sweeps answer
// characterization and degradation queries in microseconds, with the engine
// remaining the ground truth the curves are fitted — and bounded — against.
//
// The fitter (Fit) samples each application's (dimension, intensity) grid
// through profile.CharacterizeSweepContext, fits one saturating roofline-style
// curve per resource dimension by least squares (internal/linalg), and
// records the curve's maximum and mean absolute residual over the training
// grid as first-class artifacts. Those residuals make every surrogate
// answer carry a certificate: Set.Predict propagates the per-dimension
// curve bounds through Equation 3, so the returned Prediction.Bound is a
// sound upper bound on |surrogate − engine| at the training grid points —
// internal/simtest pins this containment as a law across seeds. Callers
// (the qosd serving tier) fall back to the engine whenever the bound
// exceeds their accuracy budget.
package surrogate

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/rulers"
	"repro/internal/sim/pmu"
)

// Curve is one fitted per-dimension response: a saturating function of
// Ruler intensity x ∈ (0, 1] through the origin (zero pressure degrades
// nothing), using the basis {x, √x, x²}. The √x term captures the
// roofline-style early saturation contended resources exhibit; x² the
// late super-linear pile-up of queueing-dominated dimensions.
type Curve struct {
	// Coef are the basis coefficients: Coef[0]·x + Coef[1]·√x + Coef[2]·x².
	Coef [3]float64 `json:"coef"`
	// MaxAbsErr and MeanAbsErr are the absolute residuals of the fit over
	// its training grid — the certificate every downstream bound builds on.
	MaxAbsErr  float64 `json:"max_abs_err"`
	MeanAbsErr float64 `json:"mean_abs_err"`
}

// At evaluates the curve, clamping x into [0, 1] (intensities outside the
// training domain saturate rather than extrapolate).
func (c Curve) At(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x > 1 {
		x = 1
	}
	return c.Coef[0]*x + c.Coef[1]*math.Sqrt(x) + c.Coef[2]*x*x
}

// Model is one application's fitted surrogate: per-dimension sensitivity
// and contentiousness curves plus the solo measurements the engine path
// would also report.
type Model struct {
	App       string            `json:"app"`
	Placement profile.Placement `json:"placement"`
	SoloIPC   float64           `json:"solo_ipc"`
	SoloPMU   pmu.Counters      `json:"solo_pmu"`
	// Intensities is the training grid the curves were fitted (and their
	// error bounds measured) on.
	Intensities []float64                   `json:"intensities"`
	Sen         [rulers.NumDimensions]Curve `json:"sen"`
	Con         [rulers.NumDimensions]Curve `json:"con"`
}

// Characterization evaluates the model at full intensity, yielding the
// surrogate's stand-in for the engine-measured profile.Characterization.
func (m *Model) Characterization() profile.Characterization {
	ch := profile.Characterization{
		App:       m.App,
		Placement: m.Placement,
		SoloIPC:   m.SoloIPC,
		SoloPMU:   m.SoloPMU,
	}
	for d := range ch.Sen {
		ch.Sen[d] = m.Sen[d].At(1)
		ch.Con[d] = m.Con[d].At(1)
	}
	return ch
}

// Bound returns the largest per-curve max-absolute-error across the
// model's dimensions — a coarse one-number summary of fit quality.
func (m *Model) Bound() float64 {
	var b float64
	for d := range m.Sen {
		b = math.Max(b, math.Max(m.Sen[d].MaxAbsErr, m.Con[d].MaxAbsErr))
	}
	return b
}

// Prediction is a surrogate answer together with its certificate.
type Prediction struct {
	// Degradation is the Equation 3 prediction evaluated on surrogate
	// feature vectors.
	Degradation float64
	// Bound upper-bounds |Degradation − engine-featured prediction|: the
	// per-dimension curve residual bounds propagated through the model's
	// coefficients. Callers needing tighter accuracy than Bound fall back
	// to the engine.
	Bound float64
}

// Set is a fleet of fitted models for one machine configuration and
// placement, optionally carrying the Equation 3 model trained against
// engine ground truth (TrainEq3) so the set alone can serve predictions.
type Set struct {
	// Machine is the isa.Config name the models were fitted on.
	Machine   string            `json:"machine"`
	Placement profile.Placement `json:"placement"`
	Models    map[string]*Model `json:"models"`
	// Eq3 is the embedded degradation model; nil until TrainEq3 (or a
	// caller) installs one.
	Eq3 *model.Smite `json:"eq3,omitempty"`
}

// Model returns the fitted model for app, or an error naming the miss.
func (s *Set) Model(app string) (*Model, error) {
	m, ok := s.Models[app]
	if !ok {
		return nil, fmt.Errorf("surrogate: no fitted model for %q", app)
	}
	return m, nil
}

// Characterizations evaluates every model in the set at full intensity.
// Order follows map iteration; callers needing stability should sort.
func (s *Set) Characterizations() []profile.Characterization {
	out := make([]profile.Characterization, 0, len(s.Models))
	for _, m := range s.Models {
		out = append(out, m.Characterization())
	}
	return out
}

// PredictWith evaluates Equation 3 with the given coefficient vector on
// the surrogate feature vectors of victim and aggressor, and propagates
// the curves' residual bounds into a certificate. It is PredictAt at full
// occupancy.
func (s *Set) PredictWith(m model.Smite, victim, aggressor string) (Prediction, error) {
	return s.PredictAt(m, victim, aggressor, 1)
}

// PredictAt is PredictWith with the aggressor at occupancy x ∈ [0, 1]: its
// contentiousness curves are evaluated at intensity x and the intercept,
// which must vanish with no aggressor present, is scaled by x (mirroring
// model.Smite.PredictPartial). The victim's sensitivities stay at full
// intensity. At x = 1 this is the pairwise prediction bit for bit.
//
// Soundness of the bound: writing the surrogate features sen = sen* + εs
// and con = con* + εc against the engine features sen*, con* the curves
// were fitted to, the per-dimension prediction gap is
//
//	c·(sen·con − sen*·con*) = c·(sen·εc + εs·con − εs·εc)
//
// whose magnitude is at most |c|·(|sen|·Ec + Es·|con| + Es·Ec) with
// Es, Ec the recorded MaxAbsErr of the two curves. Summing over
// dimensions gives Bound ≥ |surrogate prediction − the same model
// evaluated on engine features at the training grid|.
func (s *Set) PredictAt(m model.Smite, victim, aggressor string, x float64) (Prediction, error) {
	mv, err := s.Model(victim)
	if err != nil {
		return Prediction{}, err
	}
	ma, err := s.Model(aggressor)
	if err != nil {
		return Prediction{}, err
	}
	pred := Prediction{Degradation: m.Intercept * x}
	for d := range m.Coef {
		sen, con := mv.Sen[d].At(1), ma.Con[d].At(x)
		es, ec := mv.Sen[d].MaxAbsErr, ma.Con[d].MaxAbsErr
		pred.Degradation += m.Coef[d] * sen * con
		pred.Bound += math.Abs(m.Coef[d]) * (math.Abs(sen)*ec + es*math.Abs(con) + es*ec)
	}
	return pred, nil
}

// Predict evaluates the set's embedded Equation 3 model (TrainEq3) on the
// pair; it errors when no model is embedded.
func (s *Set) Predict(victim, aggressor string) (Prediction, error) {
	if s.Eq3 == nil {
		return Prediction{}, fmt.Errorf("surrogate: set has no embedded Eq3 model (run TrainEq3 or smite fit -train)")
	}
	return s.PredictWith(*s.Eq3, victim, aggressor)
}
