package admit

import (
	"math"
	"strings"
	"testing"
)

// malformedClassSpecs are specs ParseClasses must reject, each with a
// fragment its error names. FuzzParseClasses seeds its corpus from them.
var malformedClassSpecs = []struct {
	name, spec, frag string
}{
	{"empty spec", "", "empty SLO class spec"},
	{"blank spec", "   ", "empty SLO class spec"},
	{"empty entry", "a:20ms,,b:30ms", "empty class entry"},
	{"missing budget", "critical", "name:budget"},
	{"too many fields", "a:20ms:0.95:x", "name:budget"},
	{"empty name", ":20ms", "empty name"},
	{"duplicate name", "a:20ms,a:40ms", "duplicate class"},
	{"bad duration", "a:bogus", "budget"},
	{"bare number budget", "a:20", "budget"},
	{"zero budget", "a:0s", "must be positive"},
	{"negative budget", "a:-5ms", "must be positive"},
	{"bad percentile", "a:20ms:fast", "percentile"},
	{"percentile zero", "a:20ms:0", "outside (0,1)"},
	{"percentile one", "a:20ms:1", "outside (0,1)"},
	{"percentile NaN", "a:20ms:NaN", "outside (0,1)"},
}

func TestParseClasses(t *testing.T) {
	t.Run("canonical spec", func(t *testing.T) {
		classes, err := ParseClasses("critical:20ms:0.95,standard:60ms:0.95,sheddable:150ms:0.90")
		if err != nil {
			t.Fatal(err)
		}
		want := []Class{
			{Name: "critical", Budget: 0.020, Percentile: 0.95},
			{Name: "standard", Budget: 0.060, Percentile: 0.95},
			{Name: "sheddable", Budget: 0.150, Percentile: 0.90},
		}
		if len(classes) != len(want) {
			t.Fatalf("parsed %d classes, want %d", len(classes), len(want))
		}
		for i := range classes {
			if classes[i] != want[i] {
				t.Errorf("class %d = %+v, want %+v", i, classes[i], want[i])
			}
		}
	})
	t.Run("percentile defaults", func(t *testing.T) {
		classes, err := ParseClasses("gold: 1500ms ")
		if err != nil {
			t.Fatal(err)
		}
		if classes[0].Name != "gold" || classes[0].Budget != 1.5 || classes[0].Percentile != 0.95 {
			t.Errorf("parsed %+v", classes[0])
		}
	})

	for _, tc := range malformedClassSpecs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseClasses(tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("ParseClasses(%q) = %v, want mention of %q", tc.spec, err, tc.frag)
			}
		})
	}
}

func TestEvaluate(t *testing.T) {
	class := Class{Name: "critical", Budget: 0.020, Percentile: 0.95}
	// Solo tail at mu=1000, lambda=600: -ln(0.05)/400 ≈ 7.5ms, well under
	// the 18ms effective budget at 10% headroom.
	t.Run("clean admit", func(t *testing.T) {
		d := Evaluate(0.05, 0, 1000, 600, class, 0.1)
		if !d.Admitted || d.Reason != ReasonOK || d.Saturated {
			t.Fatalf("decision %+v", d)
		}
		if math.Abs(d.EffectiveBudget-0.018) > 1e-12 {
			t.Errorf("effective budget %g, want 0.018", d.EffectiveBudget)
		}
		if d.Tail <= 0 || d.Tail > d.EffectiveBudget {
			t.Errorf("tail %g outside (0, %g]", d.Tail, d.EffectiveBudget)
		}
	})
	t.Run("budget exceeded", func(t *testing.T) {
		// deg 0.3 leaves mu' = 700: tail ≈ 3.0/100 = 30ms > 18ms.
		d := Evaluate(0.3, 0, 1000, 600, class, 0.1)
		if d.Admitted || d.Reason != ReasonBudgetExceeded || d.Saturated {
			t.Fatalf("decision %+v", d)
		}
	})
	t.Run("bound inflation flips the decision", func(t *testing.T) {
		// deg 0.2 alone admits (mu'=800, tail ≈ 15ms); a 0.1 bound pushes
		// the effective degradation to 0.3 and the tail past the budget.
		clean := Evaluate(0.2, 0, 1000, 600, class, 0.1)
		if !clean.Admitted {
			t.Fatalf("unbounded decision %+v", clean)
		}
		inflated := Evaluate(0.2, 0.1, 1000, 600, class, 0.1)
		if inflated.Admitted || math.Abs(inflated.EffectiveDegradation-0.3) > 1e-12 {
			t.Fatalf("inflated decision %+v", inflated)
		}
	})
	t.Run("saturated never admits", func(t *testing.T) {
		for _, deg := range []float64{0.4, 1.0, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
			// deg 0.4 at mu=1000, lambda=600 puts mu' exactly at lambda.
			d := Evaluate(deg, 0, 1000, 600, class, 0.1)
			if d.Admitted || !d.Saturated || d.Reason != ReasonSaturated {
				t.Errorf("deg=%v: decision %+v", deg, d)
			}
			if !math.IsInf(d.Tail, 1) {
				t.Errorf("deg=%v: tail %v, want +Inf", deg, d.Tail)
			}
		}
	})
	t.Run("zero headroom uses the full budget", func(t *testing.T) {
		d := Evaluate(0.05, 0, 1000, 600, class, 0)
		if d.EffectiveBudget != class.Budget {
			t.Errorf("effective budget %g, want %g", d.EffectiveBudget, class.Budget)
		}
	})
	t.Run("garbage headroom clamps to zero", func(t *testing.T) {
		for _, h := range []float64{-0.5, math.NaN()} {
			d := Evaluate(0.05, 0, 1000, 600, class, h)
			if d.EffectiveBudget != class.Budget {
				t.Errorf("headroom %v: effective budget %g, want %g", h, d.EffectiveBudget, class.Budget)
			}
		}
	})
}

func TestSaturationSignal(t *testing.T) {
	cases := []struct {
		rate float64
		want string
	}{
		{0, SignalScaleDown},
		{0.05, SignalScaleDown}, // at the scale-down threshold
		{0.051, SignalSteady},
		{0.19, SignalSteady},
		{0.2, SignalScaleUp}, // at the scale-up threshold
		{0.9, SignalScaleUp},
	}
	for _, tc := range cases {
		if got := SaturationSignal(tc.rate, 0.2, 0.05); got != tc.want {
			t.Errorf("SaturationSignal(%g) = %s, want %s", tc.rate, got, tc.want)
		}
	}
}

// FuzzParseClasses: ParseClasses on arbitrary input returns an error or a
// class set that ValidateClasses accepts, with every budget positive and
// finite and every percentile inside (0,1); it never panics.
func FuzzParseClasses(f *testing.F) {
	f.Add("critical:20ms:0.95,standard:60ms:0.95,sheddable:150ms:0.90")
	f.Add("gold: 1500ms ")
	for _, tc := range malformedClassSpecs {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		classes, err := ParseClasses(spec)
		if err != nil {
			return
		}
		if err := ValidateClasses(classes, 0, DefaultScaleUpThreshold, DefaultScaleDownThreshold); err != nil {
			t.Fatalf("ParseClasses(%q) accepted a set ValidateClasses rejects: %v", spec, err)
		}
		for _, cl := range classes {
			if !(cl.Budget > 0) || math.IsInf(cl.Budget, 0) || !(cl.Percentile > 0 && cl.Percentile < 1) {
				t.Fatalf("ParseClasses(%q) accepted class %+v", spec, cl)
			}
		}
	})
}
