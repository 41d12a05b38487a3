package cluster

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/model"
	"repro/internal/surrogate"
	"repro/internal/xrand"
)

// SyntheticGenWorld derives a generation-specific synthetic co-location
// world for heterogeneous fleets: the same application populations, but a
// degradation surface seeded by the generation name — machines of
// different generations interfere differently, so a co-location that
// violates on one part may fit on another.
func SyntheticGenWorld(gen string, nLat, nBatch, maxInstances int, seed uint64) (*surrogate.Set, *Table, error) {
	h := fnv.New64a()
	h.Write([]byte(gen))
	return SyntheticWorld(nLat, nBatch, maxInstances, seed^h.Sum64())
}

// SyntheticWorld is a deterministic co-location universe for scale
// studies: a surrogate set whose analytic curves stand in for fitted
// ones, and a measured degradation table derived from the same surface
// plus seeded noise. It lets the 10k-machine/1M-event simulations and
// benchmarks exercise the full Predictor seam — surrogate tier first,
// table fallback — without hours of engine characterization, while
// keeping every number reproducible from the seed.
func SyntheticWorld(nLat, nBatch, maxInstances int, seed uint64) (*surrogate.Set, *Table, error) {
	if nLat <= 0 || nBatch <= 0 || maxInstances <= 0 {
		return nil, nil, fmt.Errorf("cluster: synthetic world needs positive dimensions, got %d/%d/%d", nLat, nBatch, maxInstances)
	}
	rng := xrand.New(seed ^ 0x57A71C)

	lats := make([]string, nLat)
	for i := range lats {
		lats[i] = fmt.Sprintf("latsvc-%02d", i)
	}
	batches := make([]string, nBatch)
	for i := range batches {
		batches[i] = fmt.Sprintf("batch-%02d", i)
	}

	set := &surrogate.Set{Machine: "synthetic", Models: make(map[string]*surrogate.Model)}
	eq3 := &model.Smite{Intercept: 0.01}
	for d := range eq3.Coef {
		eq3.Coef[d] = 0.08 + 0.03*float64(d%5)
	}
	set.Eq3 = eq3

	mkModel := func(app string, sen, con float64) *surrogate.Model {
		m := &surrogate.Model{App: app, SoloIPC: 1, Intensities: []float64{0.25, 0.5, 1}}
		for d := range m.Sen {
			// Per-dimension spread around the app's overall sensitivity and
			// contentiousness; √x gives the saturating early-contention shape.
			s := sen * (0.6 + 0.8*rng.Float64())
			c := con * (0.6 + 0.8*rng.Float64())
			m.Sen[d] = surrogate.Curve{Coef: [3]float64{s}, MaxAbsErr: 0.004, MeanAbsErr: 0.002}
			m.Con[d] = surrogate.Curve{Coef: [3]float64{0.6 * c, 0.4 * c, 0}, MaxAbsErr: 0.004, MeanAbsErr: 0.002}
		}
		set.Models[app] = m
		return m
	}
	for _, lat := range lats {
		mkModel(lat, 0.3+0.5*rng.Float64(), 0.2+0.3*rng.Float64())
	}
	for _, b := range batches {
		mkModel(b, 0.2+0.3*rng.Float64(), 0.3+0.6*rng.Float64())
	}

	// The measured table is the surrogate surface plus seeded measurement
	// noise, so predictions are accurate but not exact — SMiTe and Oracle
	// genuinely differ, as on real hardware.
	tbl := NewTable(lats, batches, maxInstances)
	sp := &SurrogatePredictor{Set: set, Capacity: maxInstances}
	for l, lat := range lats {
		for b, batch := range batches {
			for n := 1; n <= maxInstances; n++ {
				base, err := sp.Predict(lat, batch, n)
				if err != nil {
					return nil, nil, err
				}
				i := tbl.Cell(l, b, n)
				tbl.Actual[i] = clamp01(base.Deg + 0.01*rng.Norm())
				tbl.Predicted[i] = clamp01(tbl.Actual[i] + 0.005*rng.Norm())
			}
		}
	}
	return set, tbl, nil
}

func clamp01(v float64) float64 {
	return math.Min(1, math.Max(0, v))
}
