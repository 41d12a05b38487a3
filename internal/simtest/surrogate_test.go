package simtest

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/surrogate"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// lawSmite is a fixed Equation 3 coefficient vector for the surrogate
// laws: non-trivial, spread across dimensions, deterministic.
func lawSmite() model.Smite {
	var m model.Smite
	m.Intercept = 0.01
	for d := range m.Coef {
		m.Coef[d] = 0.2 + 0.1*float64(d)
	}
	return m
}

// TestSurrogateBoundContainment is the certificate law: for every seed's
// random workload pair, the surrogate prediction may deviate from the same
// Equation 3 model evaluated on freshly measured engine characterizations
// by at most the prediction's own recorded bound. The engine side runs on
// a fresh profiler (fresh caches), so the law simultaneously exercises fit
// determinism and residual-bound soundness.
func TestSurrogateBoundContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("fit sweep per seed in short mode")
	}
	cfg := SmallIVB(2)
	eq3 := lawSmite()
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0xC4)
		specs := []*workload.Spec{
			RandomSpec(r, "rand-sur-a"),
			RandomSpec(r, "rand-sur-b"),
		}
		placement := RandomPlacement(r)
		opts := TinyOptions()
		opts.BaseSeed = seed + 1
		fo := surrogate.FitOptions{Intensities: []float64{RandomIntensity(r), 0.5}}

		set, err := surrogate.Fit(context.Background(), profile.NewProfiler(cfg, opts), specs, placement, fo)
		if err != nil {
			t.Fatalf("seed %d fit: %v", seed, err)
		}
		engine, err := profile.NewProfiler(cfg, opts).CharacterizeAllContext(context.Background(), specs, placement)
		if err != nil {
			t.Fatalf("seed %d engine: %v", seed, err)
		}
		byName := make(map[string]profile.Characterization, len(engine))
		for _, ch := range engine {
			byName[ch.App] = ch
		}
		for _, v := range specs {
			for _, a := range specs {
				pred, err := set.PredictWith(eq3, v.Name, a.Name)
				if err != nil {
					t.Fatalf("seed %d %s|%s: %v", seed, v.Name, a.Name, err)
				}
				engDeg := eq3.Predict(model.PairObs{
					SenA: byName[v.Name].Sen,
					ConB: byName[a.Name].Con,
				})
				gap := math.Abs(pred.Degradation - engDeg)
				t.Logf("seed %2d %s %s|%s deg=%+.4f eng=%+.4f gap=%.5f bound=%.5f",
					seed, placement, v.Name, a.Name, pred.Degradation, engDeg, gap, pred.Bound)
				if gap > pred.Bound+1e-9 {
					t.Errorf("seed %d (%s): |surrogate−engine| = %.6f exceeds the recorded bound %.6f for %s vs %s",
						seed, placement, gap, pred.Bound, v.Name, a.Name)
				}
			}
		}
	}
}

// TestSurrogateFitParallelismIndependence extends the
// scheduling-transparency law to the fitter: the fitted curves *and their
// recorded error bounds* must be bit-identical at any worker count, since
// Parallelism is an execution detail of the underlying sweep.
func TestSurrogateFitParallelismIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("fit sweep per worker count in short mode")
	}
	cfg := SmallIVB(2)
	for seed := uint64(0); seed < numSeeds; seed++ {
		r := xrand.New(seed + 0xF1)
		specs := []*workload.Spec{RandomSpec(r, "rand-surpar")}
		placement := RandomPlacement(r)
		fo := surrogate.FitOptions{Intensities: []float64{0.25, RandomIntensity(r)}}

		var baseline *surrogate.Set
		for _, workers := range []int{1, 2, 8} {
			opts := TinyOptions()
			opts.BaseSeed = seed + 1
			opts.Parallelism = workers
			set, err := surrogate.Fit(context.Background(), profile.NewProfiler(cfg, opts), specs, placement, fo)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if baseline == nil {
				baseline = set
			} else if !reflect.DeepEqual(baseline, set) {
				t.Errorf("seed %d (%s): Parallelism=%d changed the fitted surrogate (curves or bounds)",
					seed, placement, workers)
			}
		}
	}
}
