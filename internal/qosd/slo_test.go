package qosd

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/admit"
	"repro/internal/isol"
)

func TestSLOConfigValidate(t *testing.T) {
	base := func() SLOConfig {
		return SLOConfig{Classes: DefaultSLOClasses()}.withDefaults()
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*SLOConfig)
	}{
		{"empty class name", func(c *SLOConfig) { c.Classes[0].Name = "" }},
		{"duplicate class", func(c *SLOConfig) { c.Classes[1].Name = c.Classes[0].Name }},
		{"zero budget", func(c *SLOConfig) { c.Classes[0].Budget = 0 }},
		{"infinite budget", func(c *SLOConfig) { c.Classes[0].Budget = math.Inf(1) }},
		{"NaN budget", func(c *SLOConfig) { c.Classes[0].Budget = math.NaN() }},
		{"percentile at one", func(c *SLOConfig) { c.Classes[0].Percentile = 1 }},
		{"negative headroom", func(c *SLOConfig) { c.Headroom = -0.1 }},
		{"headroom at one", func(c *SLOConfig) { c.Headroom = 1 }},
		{"thresholds inverted", func(c *SLOConfig) { c.ScaleUpThreshold, c.ScaleDownThreshold = 0.05, 0.2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestSuggestIsolation(t *testing.T) {
	class := admit.Class{Name: "critical", Budget: 0.020, Percentile: 0.95}
	t.Run("rejection remedied by the weakest clearing level", func(t *testing.T) {
		// deg 0.3 is rejected outright (tail ≈ 30ms > 18ms); ways-half
		// scales it to 0.21 (mu'=790, tail ≈ 15.8ms), which fits.
		base := EvaluateAdmission(0.3, 0, 1000, 600, class, 0.1)
		if base.Admitted {
			t.Fatalf("base decision %+v", base)
		}
		rem := SuggestIsolation(0.3, 0, 1000, 600, class, 0.1, nil)
		if rem == nil {
			t.Fatal("no remedy for a ladder-recoverable rejection")
		}
		if rem.Level != 1 || rem.Setting.Name != "ways-half" {
			t.Errorf("remedy %+v, want level 1 (ways-half)", rem)
		}
		check := EvaluateAdmission(0.3*rem.Setting.DegScale, 0, 1000, 600, class, 0.1)
		if !check.Admitted || check.Tail != rem.TailLatency || check.EffectiveDegradation != rem.EffectiveDegradation {
			t.Errorf("remedy numbers %+v do not match re-evaluation %+v", rem, check)
		}
	})
	t.Run("bound scales with the level", func(t *testing.T) {
		// deg+bound = 0.3 rejects; ways-half scales both to 0.21 total.
		rem := SuggestIsolation(0.2, 0.1, 1000, 600, class, 0.1, nil)
		if rem == nil || rem.Level != 1 {
			t.Fatalf("remedy %+v", rem)
		}
		if math.Abs(rem.EffectiveDegradation-0.3*rem.Setting.DegScale) > 1e-12 {
			t.Errorf("effective degradation %g, want %g", rem.EffectiveDegradation, 0.3*rem.Setting.DegScale)
		}
	})
	t.Run("deep saturation escalates past the weak levels", func(t *testing.T) {
		// deg 0.9: ways-half leaves 0.63 (saturated), ways-3q+throttle
		// leaves 0.45 (saturated at mu'=550 < 600? no: 550<600 saturated),
		// clamp leaves 0.315 (mu'=685, tail ≈ 35ms > 18ms) — no remedy.
		if rem := SuggestIsolation(0.9, 0, 1000, 600, class, 0.1, nil); rem != nil {
			t.Errorf("unrecoverable rejection got remedy %+v", rem)
		}
		// A looser class recovers at the clamp level.
		loose := admit.Class{Name: "standard", Budget: 0.060, Percentile: 0.95}
		rem := SuggestIsolation(0.9, 0, 1000, 600, loose, 0.1, nil)
		if rem == nil || rem.Setting.Name != "clamp" {
			t.Fatalf("remedy %+v, want clamp", rem)
		}
	})
	t.Run("ladder with only the identity yields nothing", func(t *testing.T) {
		levels := isol.DefaultSettings()[:1]
		if rem := SuggestIsolation(0.3, 0, 1000, 600, class, 0.1, levels); rem != nil {
			t.Errorf("identity-only ladder got remedy %+v", rem)
		}
	})
}

// TestAdmitEndToEnd drives POST /v1/admit against the in-process
// admission math: for every class the served decision must equal
// EvaluateAdmission on the served prediction, and the acceptance
// property holds — no co-location whose inflated tail exceeds the
// effective class budget is ever admitted.
func TestAdmitEndToEnd(t *testing.T) {
	slo := &SLOConfig{Classes: DefaultSLOClasses(), Headroom: 0.1}
	s, c := newTestServer(t, Config{SLO: slo})
	ctx := context.Background()

	pred, err := c.Predict(ctx, PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	queues := []QueueSpec{
		{Mu: 1000, Lambda: 600},
		{Mu: 1000, Lambda: 950},
		{Mu: 200, Lambda: 199},
		{Mu: 50, Lambda: 10},
	}
	for _, q := range queues {
		for _, class := range s.cfg.SLO.Classes {
			got, err := c.Admit(ctx, AdmitRequest{
				Victim: "web-search", Aggressor: "429.mcf", Class: class.Name, Queue: q,
			})
			if err != nil {
				t.Fatalf("%s mu=%g lambda=%g: %v", class.Name, q.Mu, q.Lambda, err)
			}
			want := EvaluateAdmission(pred.Degradation, pred.ErrorBound, q.Mu, q.Lambda, class, s.cfg.SLO.Headroom)
			if got.Admitted != want.Admitted || got.Reason != want.Reason || got.Saturated != want.Saturated {
				t.Errorf("%s mu=%g lambda=%g: served (%v,%s,sat=%v), want (%v,%s,sat=%v)",
					class.Name, q.Mu, q.Lambda,
					got.Admitted, got.Reason, got.Saturated,
					want.Admitted, want.Reason, want.Saturated)
			}
			if got.EffectiveBudget != want.EffectiveBudget || got.EffectiveDegradation != want.EffectiveDegradation {
				t.Errorf("%s mu=%g lambda=%g: budget/deg (%g,%g), want (%g,%g)",
					class.Name, q.Mu, q.Lambda,
					got.EffectiveBudget, got.EffectiveDegradation,
					want.EffectiveBudget, want.EffectiveDegradation)
			}
			// The acceptance property, asserted on the wire values alone.
			if got.Admitted && (got.TailLatency == nil || *got.TailLatency > got.EffectiveBudget) {
				t.Errorf("%s mu=%g lambda=%g: admitted over budget: %+v", class.Name, q.Mu, q.Lambda, got)
			}
			if !got.Admitted && got.Reason == string(AdmitReasonOK) {
				t.Errorf("rejection carries reason ok: %+v", got)
			}
			if got.Saturated && got.TailLatency != nil {
				t.Errorf("saturated response carries a tail: %+v", got)
			}
			// Remedy contract: never on admits, and when present it must
			// actually flip the decision at the suggested level.
			if got.Admitted && got.IsolationRemedy != nil {
				t.Errorf("admitted response carries an isolation remedy: %+v", got)
			}
			if rem := got.IsolationRemedy; rem != nil {
				scale := rem.Setting.DegScale
				check := EvaluateAdmission(pred.Degradation*scale, pred.ErrorBound*scale,
					q.Mu, q.Lambda, class, s.cfg.SLO.Headroom)
				if !check.Admitted {
					t.Errorf("%s mu=%g lambda=%g: remedy level %d does not admit: %+v",
						class.Name, q.Mu, q.Lambda, rem.Level, check)
				}
			}
		}
	}
}

// TestAdmitSurrogateBoundInflates pins the tier interplay: when the
// surrogate tier serves the prediction, /v1/admit checks the budget at
// deg + bound, so a surrogate answer can be rejected where the exact
// engine answer would be admitted.
func TestAdmitSurrogateBoundInflates(t *testing.T) {
	// A large recorded curve error makes the bound dominate the check.
	set := testSurrogate(0.5)
	slo := &SLOConfig{Classes: []admit.Class{{Name: "critical", Budget: 0.020, Percentile: 0.95}}}
	_, c := newTestServer(t, Config{Surrogate: set, SurrogateThreshold: 100, SLO: slo})
	ctx := context.Background()
	queue := QueueSpec{Mu: 1000, Lambda: 600}

	got, err := c.Admit(ctx, AdmitRequest{
		Victim: "web-search", Aggressor: "429.mcf", Class: "critical", Queue: queue,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Tier != TierSurrogate || got.ErrorBound <= 0 {
		t.Fatalf("admission not served from the surrogate tier: %+v", got)
	}
	if got.EffectiveDegradation != got.Degradation+got.ErrorBound {
		t.Errorf("effective degradation %g, want deg %g + bound %g",
			got.EffectiveDegradation, got.Degradation, got.ErrorBound)
	}
	if got.Admitted {
		t.Errorf("inflated degradation %g admitted against a 20ms budget: %+v", got.EffectiveDegradation, got)
	}

	// The same pair through an engine-only daemon carries no bound and is
	// admitted: the inflation, not the prediction, flipped the decision.
	_, engineClient := newTestServer(t, Config{SLO: slo})
	eng, err := engineClient.Admit(ctx, AdmitRequest{
		Victim: "web-search", Aggressor: "429.mcf", Class: "critical", Queue: queue,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Tier != TierEngine || eng.ErrorBound != 0 {
		t.Fatalf("engine daemon served tier %q bound %g", eng.Tier, eng.ErrorBound)
	}
	if !eng.Admitted {
		t.Fatalf("engine answer rejected; the inflation test needs an admissible base case: %+v", eng)
	}
}

// TestAdmitRequestValidation pins the error surface of /v1/admit.
func TestAdmitRequestValidation(t *testing.T) {
	slo := &SLOConfig{Classes: DefaultSLOClasses()}
	_, c := newTestServer(t, Config{SLO: slo})
	ctx := context.Background()
	queue := QueueSpec{Mu: 1000, Lambda: 600}

	cases := []struct {
		name string
		req  AdmitRequest
		code string
	}{
		{"missing class", AdmitRequest{Victim: "web-search", Aggressor: "429.mcf", Queue: queue}, CodeInvalidArgument},
		{"unknown class", AdmitRequest{Victim: "web-search", Aggressor: "429.mcf", Class: "bronze", Queue: queue}, CodeUnknownClass},
		{"missing queue", AdmitRequest{Victim: "web-search", Aggressor: "429.mcf", Class: "critical"}, CodeInvalidArgument},
		{"negative lambda", AdmitRequest{Victim: "web-search", Aggressor: "429.mcf", Class: "critical",
			Queue: QueueSpec{Mu: 1000, Lambda: -1}}, CodeInvalidArgument},
		{"percentile set", AdmitRequest{Victim: "web-search", Aggressor: "429.mcf", Class: "critical",
			Queue: QueueSpec{Mu: 1000, Lambda: 600, Percentile: 0.99}}, CodeInvalidArgument},
		{"unknown victim", AdmitRequest{Victim: "nope", Aggressor: "429.mcf", Class: "critical", Queue: queue}, CodeUnknownProfile},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Admit(ctx, tc.req)
			var ae *APIError
			if !errors.As(err, &ae) || ae.Code != tc.code {
				t.Errorf("Admit(%+v) = %v, want code %s", tc.req, err, tc.code)
			}
		})
	}
}

// TestAdmitDisabled pins the 501 when the daemon has no SLO config.
func TestAdmitDisabled(t *testing.T) {
	_, c := newTestServer(t, Config{})
	_, err := c.Admit(context.Background(), AdmitRequest{
		Victim: "web-search", Aggressor: "429.mcf", Class: "critical",
		Queue: QueueSpec{Mu: 1000, Lambda: 600},
	})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeSLODisabled {
		t.Errorf("Admit on SLO-less daemon = %v, want code %s", err, CodeSLODisabled)
	}
}

// TestAdmitMetrics pins the analyzer surface: per-class counters, the
// windowed rejection rate, and the saturation signal on /metrics.
func TestAdmitMetrics(t *testing.T) {
	slo := &SLOConfig{
		Classes: []admit.Class{{Name: "critical", Budget: 0.020, Percentile: 0.95}},
		Window:  8,
	}
	_, c := newTestServer(t, Config{SLO: slo})
	ctx := context.Background()

	admits, rejects := 0, 0
	for _, lambda := range []float64{100, 600, 950, 999} {
		got, err := c.Admit(ctx, AdmitRequest{
			Victim: "web-search", Aggressor: "429.mcf", Class: "critical",
			Queue: QueueSpec{Mu: 1000, Lambda: lambda},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Admitted {
			admits++
		} else {
			rejects++
		}
	}
	if admits == 0 || rejects == 0 {
		t.Fatalf("test queues produced a one-sided decision mix (%d/%d)", admits, rejects)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.SLO == nil {
		t.Fatal("metrics carry no SLO report")
	}
	cm, ok := m.SLO.Classes["critical"]
	if !ok {
		t.Fatalf("no per-class counters in %+v", m.SLO.Classes)
	}
	if cm.Admitted != uint64(admits) || cm.Rejected != uint64(rejects) {
		t.Errorf("class counters %+v, want %d/%d", cm, admits, rejects)
	}
	wantRate := float64(rejects) / float64(admits+rejects)
	if m.SLO.Saturation.RejectionRate != wantRate {
		t.Errorf("rejection rate %g, want %g", m.SLO.Saturation.RejectionRate, wantRate)
	}
	wantSignal := admit.SaturationSignal(wantRate, m.SLO.Saturation.ScaleUpThreshold, m.SLO.Saturation.ScaleDownThreshold)
	if m.SLO.Saturation.Signal != wantSignal {
		t.Errorf("signal %q, want %q", m.SLO.Saturation.Signal, wantSignal)
	}
	// Window reports the decisions currently inside the ring, not its
	// capacity: four decisions into an 8-slot window.
	if m.SLO.Saturation.Window != admits+rejects {
		t.Errorf("window %d, want %d", m.SLO.Saturation.Window, admits+rejects)
	}

	// The SLO-less daemon reports no SLO block at all.
	_, plain := newTestServer(t, Config{})
	pm, err := plain.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pm.SLO != nil {
		t.Errorf("SLO-less daemon reports %+v", pm.SLO)
	}
}

// The windowed rejection rate must be computed over the decisions
// actually observed, not the ring capacity. Before the fix a
// freshly-started analyzer with a handful of decisions divided by the
// full window size, under-reporting the rate by window/filled and
// keeping the signal pinned at admit.SignalScaleDown during warm-up.
func TestSaturationRateOverObservedNotCapacity(t *testing.T) {
	a := newSLOAnalyzer(SLOConfig{Classes: DefaultSLOClasses(), Window: 8}.withDefaults())
	rate, window := a.rejectionRate()
	if rate != 0 || window != 0 {
		t.Fatalf("empty analyzer: rate=%g window=%d, want 0, 0", rate, window)
	}
	// 3 decisions into a window of 8: 2 rejections / 3 observed, not /8.
	a.record("critical", true)
	a.record("critical", false)
	a.record("critical", false)
	rate, window = a.rejectionRate()
	if window != 3 {
		t.Fatalf("window = %d, want 3 (observed decisions, not capacity)", window)
	}
	if want := 2.0 / 3.0; rate != want {
		t.Fatalf("rate = %g, want %g (rejections over observed, not over capacity)", rate, want)
	}
}

// Once the ring wraps, the rate covers exactly the last Window
// decisions: older ones fall out, and overwritten slots are not
// double-counted.
func TestSaturationRateWrappedRing(t *testing.T) {
	a := newSLOAnalyzer(SLOConfig{Classes: DefaultSLOClasses(), Window: 4}.withDefaults())
	// 4 rejections fill the ring...
	for i := 0; i < 4; i++ {
		a.record("critical", false)
	}
	if rate, window := a.rejectionRate(); rate != 1 || window != 4 {
		t.Fatalf("full ring: rate=%g window=%d, want 1, 4", rate, window)
	}
	// ...then 3 admissions overwrite the oldest three. Window stays at
	// capacity and the rate reflects the surviving mix: 1 rejection / 4.
	for i := 0; i < 3; i++ {
		a.record("critical", true)
	}
	rate, window := a.rejectionRate()
	if window != 4 {
		t.Fatalf("wrapped window = %d, want 4", window)
	}
	if want := 1.0 / 4.0; rate != want {
		t.Fatalf("wrapped rate = %g, want %g", rate, want)
	}
	// Lifetime counters are unaffected by the ring wrapping.
	r := a.report()
	c := r.Classes["critical"]
	if c.Admitted != 3 || c.Rejected != 4 {
		t.Fatalf("lifetime counters = %+v, want 3 admitted / 4 rejected", c)
	}
}
