package profile

import (
	"context"
	"testing"

	"repro/internal/obs/timeline"
	"repro/internal/obs/trace"
	"repro/internal/sim/isa"
	"repro/internal/simcache"
)

// A sampled run must bypass the cache (a hit would record nothing), must
// actually produce samples, and must return results bit-identical to the
// unsampled run.
func TestSamplerBypassesCacheAndMatches(t *testing.T) {
	cfg := isa.IvyBridge()
	cfg.Cores = 1
	app := App(mustSpec(t, "429.mcf"))
	partner := App(mustSpec(t, "470.lbm"))
	opts := cacheTestOptions()
	opts.MeasureCycles = 40_000 // > one 16K slice, so several samples land

	plain, err := ColocateContext(context.Background(), cfg, app, partner, SMT, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Cache = simcache.New[RunResult]()
	// Prime the cache so a non-bypassing implementation would hit it.
	if _, err := ColocateContext(context.Background(), cfg, app, partner, SMT, opts); err != nil {
		t.Fatal(err)
	}
	rec := timeline.New()
	opts.Sampler = rec
	sampled, err := ColocateContext(context.Background(), cfg, app, partner, SMT, opts)
	if err != nil {
		t.Fatal(err)
	}

	if !sameResult(plain, sampled) {
		t.Errorf("sampled run diverged from plain run:\nplain:   %+v\nsampled: %+v", plain, sampled)
	}
	if len(rec.Samples()) == 0 {
		t.Fatal("sampled run recorded no timeline samples (cache not bypassed?)")
	}
	stats := opts.Cache.Stats()
	if stats.Hits != 0 {
		t.Errorf("sampled run hit the cache %d times; want bypass", stats.Hits)
	}
}

// Characterization under a tracer emits the stage spans the Chrome export
// renders: the characterize root, per-Ruler cells, simulate stages and
// simcache lookups, on worker tracks when parallel.
func TestCharacterizeEmitsSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := isa.IvyBridge()
	opts := cacheTestOptions()
	opts.Parallelism = 4
	p := NewProfiler(cfg, opts)

	tr := trace.New()
	ctx := trace.NewContext(context.Background(), tr)
	if _, err := p.CharacterizeContext(ctx, mustSpec(t, "429.mcf"), SMT); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for _, s := range tr.Spans() {
		counts[s.Name]++
	}
	for _, want := range []string{"profile.characterize", "profile.ruler-cell", "profile.simulate", "profile.measure", "sched.task", "simcache.compute"} {
		if counts[want] == 0 {
			t.Errorf("no %q span recorded; have %v", want, counts)
		}
	}
	if counts["profile.ruler-cell"] != len(p.RulerSet()) {
		t.Errorf("ruler-cell spans = %d, want %d", counts["profile.ruler-cell"], len(p.RulerSet()))
	}
}
