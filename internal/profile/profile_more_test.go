package profile

import (
	"context"
	"testing"

	"repro/internal/rulers"
	"repro/internal/workload"
)

func TestDegradationHelper(t *testing.T) {
	if d := Degradation(2, 1); d != 0.5 {
		t.Errorf("Degradation(2,1) = %g", d)
	}
	if d := Degradation(0, 1); d != 0 {
		t.Errorf("zero solo IPC should yield 0, got %g", d)
	}
	if d := Degradation(1, 1.1); d >= 0 {
		t.Error("speed-ups should be negative degradations")
	}
}

func TestJobWrappers(t *testing.T) {
	spec, err := workload.ByName("web-search")
	if err != nil {
		t.Fatal(err)
	}
	if j := App(spec); j.Name() != "web-search" || j.Instances() != spec.ThreadCount() {
		t.Errorf("App wrapper: %s/%d", j.Name(), j.Instances())
	}
	if j := AppThreads(spec, 3); j.Instances() != 3 {
		t.Errorf("AppThreads: %d", j.Instances())
	}
	if j := AppThreads(spec, 0); j.Instances() != 1 {
		t.Errorf("AppThreads clamps to 1, got %d", j.Instances())
	}
	r := rulers.FPAdd()
	if j := Rulers(r, 4); j.Name() != "FP_ADD" || j.Instances() != 4 {
		t.Errorf("Rulers wrapper: %s/%d", j.Name(), j.Instances())
	}
	if j := Rulers(r, 0); j.Instances() != 1 {
		t.Error("Rulers clamps to 1")
	}
}

func TestPlacementValidation(t *testing.T) {
	cfg := testConfig() // 2 cores
	spec, _ := workload.ByName("456.hmmer")
	opts := FastOptions()
	// SMT partner beyond core count.
	if _, err := ColocateContext(context.Background(), cfg, App(spec), Rulers(rulers.FPAdd(), 3), SMT, opts); err == nil {
		t.Error("oversubscribed SMT placement accepted")
	}
	// CMP needs job+partner cores.
	if _, err := ColocateContext(context.Background(), cfg, App(spec), Rulers(rulers.FPAdd(), 2), CMP, opts); err == nil {
		t.Error("oversubscribed CMP placement accepted")
	}
	// Job larger than the machine.
	ws, _ := workload.ByName("web-search") // 6 threads
	if _, err := SoloContext(context.Background(), cfg, App(ws), opts); err == nil {
		t.Error("6-thread job accepted on a 2-core machine")
	}
}

// The profiler's solo runs are memoised by the simulation cache alone: a
// repeated solo is a cache hit.
func TestSoloRunMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	p := NewProfiler(testConfig(), FastOptions())
	spec, _ := workload.ByName("456.hmmer")
	a, err := p.SoloRunContext(context.Background(), App(spec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.SoloRunContext(context.Background(), App(spec))
	if err != nil {
		t.Fatal(err)
	}
	if a.AppIPC != b.AppIPC {
		t.Error("memoized solo run differed")
	}
	if st := p.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit", st)
	}
}

// A job's solo run depends on what it runs, not on its name: a StreamJob
// named like a stock application but replaying another one's stream gets
// its own solo IPC even after the stock application's solo ran.
func TestSoloRunIgnoresJobName(t *testing.T) {
	cfg := batchConfig()
	opts := batchOptions()
	p := NewProfiler(cfg, opts)
	namd := App(mustSpec(t, "444.namd"))
	impostor := StreamJob("429.mcf", 1, namd.NewStream)
	if _, err := p.SoloRunContext(context.Background(), App(mustSpec(t, "429.mcf"))); err != nil {
		t.Fatal(err)
	}
	got, err := p.SoloRunContext(context.Background(), impostor)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SoloContext(context.Background(), cfg, impostor, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppIPC != want.AppIPC {
		t.Errorf("StreamJob %q solo IPC %.3f, want its own %.3f", impostor.Name(), got.AppIPC, want.AppIPC)
	}
}

// Runs the cache cannot serve are counted, not hidden: a closure-backed
// StreamJob has no fingerprint, so each solo simulates and counts as a
// bypass, while a fingerprinted App job goes through the cache.
func TestCacheStatsCountBypasses(t *testing.T) {
	p := NewProfiler(batchConfig(), batchOptions())
	namd := App(mustSpec(t, "444.namd"))
	stream := StreamJob("namd-stream", 1, namd.NewStream)
	for i := 0; i < 3; i++ {
		if _, err := p.SoloRunContext(context.Background(), stream); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.CacheStats(); st.Bypasses != 3 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("after 3 StreamJob solos: stats = %+v, want 3 bypasses, 0 hits, 0 misses", st)
	}
	app := NewProfiler(batchConfig(), batchOptions())
	for i := 0; i < 2; i++ {
		if _, err := app.SoloRunContext(context.Background(), namd); err != nil {
			t.Fatal(err)
		}
	}
	if st := app.CacheStats(); st.Bypasses != 0 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("after 2 App solos: stats = %+v, want 0 bypasses, 1 hit, 1 miss", st)
	}
}

func TestCharacterizationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	spec, _ := workload.ByName("445.gobmk")
	p1 := NewProfiler(testConfig(), FastOptions())
	p2 := NewProfiler(testConfig(), FastOptions())
	c1, err := p1.CharacterizeContext(context.Background(), spec, SMT)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p2.CharacterizeContext(context.Background(), spec, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Sen != c2.Sen || c1.Con != c2.Con || c1.SoloIPC != c2.SoloIPC {
		t.Error("characterization not reproducible across profilers")
	}
}

func TestMeasurePairsDeduplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	p := NewProfiler(testConfig(), FastOptions())
	a, _ := workload.ByName("456.hmmer")
	b, _ := workload.ByName("444.namd")
	set := []*workload.Spec{a, b}
	pairs, err := p.MeasurePairsContext(context.Background(), set, set, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Errorf("2-app set produced %d measurements, want 1 unordered pair", len(pairs))
	}
}

func TestMultithreadedCharacterizationClamped(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	// web-search wants 6 threads; a 2-core machine must clamp, not fail.
	p := NewProfiler(testConfig(), FastOptions())
	ws, _ := workload.ByName("web-search")
	ch, err := p.CharacterizeContext(context.Background(), ws, SMT)
	if err != nil {
		t.Fatal(err)
	}
	if ch.SoloIPC <= 0 {
		t.Error("clamped characterization produced no IPC")
	}
}

func TestOptionsWorkers(t *testing.T) {
	o := Options{Parallelism: 3}
	if o.workers() != 3 {
		t.Error("explicit parallelism ignored")
	}
	if (Options{}).workers() < 1 {
		t.Error("default workers < 1")
	}
}
