// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation section, as indexed in
// DESIGN.md. Each benchmark runs the corresponding experiment driver at
// TestScale (reduced application sets and measurement windows exercising
// the full code path); cmd/figures -scale full regenerates the paper-scale
// numbers recorded in EXPERIMENTS.md.
//
// Macro-benchmarks take seconds per iteration; run with -benchtime=1x for
// a single pass:
//
//	go test -bench=. -benchmem -benchtime=1x .
package repro

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	clusterworkload "repro/internal/cluster/workload"
	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/isol"
	"repro/internal/profile"
	"repro/internal/qosd"
	"repro/internal/sim/engine"
	"repro/internal/sim/isa"
	"repro/internal/surrogate"
	"repro/internal/workload"
	"repro/smite"
)

func newLab() *experiments.Lab { return experiments.NewLab(experiments.TestScale()) }

// skipMacroBench keeps `go test -short -bench .` fast: the figure-level
// macro benchmarks take seconds per iteration (Fig2FunctionalUnitSenCon
// sits at ~4.7 s/op), so short mode runs only the micro benchmarks. CI's
// bench job runs without -short and keeps the full gate.
func skipMacroBench(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("macro benchmark in short mode")
	}
}

// BenchmarkEngineHotLoop measures the raw engine cycle loop — the substrate
// every figure bottoms out in — on one SMT core, without the profiling
// layers. The memory-bound pair dominates real experiment wall-clock (long
// DRAM stalls), the compute-bound pair keeps the port scheduler honest, and
// the solo-idle case isolates the idle-skip fast path. ns/op is per
// Run(5000) window; the CI bench job gates on these numbers (see
// BENCH_baseline.json).
func BenchmarkEngineHotLoop(b *testing.B) {
	cases := []struct {
		name string
		a, p string // app and SMT partner ("" = solo)
	}{
		{"mem-bound-smt", "429.mcf", "470.lbm"},
		{"compute-bound-smt", "444.namd", "453.povray"},
		{"mem-bound-solo", "429.mcf", ""},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			cfg := isa.IvyBridge()
			cfg.Cores = 1
			chip := engine.MustNew(cfg)
			spec, err := workload.ByName(bc.a)
			if err != nil {
				b.Fatal(err)
			}
			chip.Assign(0, 0, workload.NewGen(spec, 1))
			if bc.p != "" {
				ps, err := workload.ByName(bc.p)
				if err != nil {
					b.Fatal(err)
				}
				chip.Assign(0, 1, workload.NewGen(ps, 2))
			}
			chip.Prewarm(60_000)
			chip.Run(10_000) // warm the pipeline before timing
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chip.Run(5000)
			}
			b.StopTimer()
			if c := chip.Counters(0, 0); c.Instructions == 0 {
				b.Fatal("no forward progress")
			}
		})
	}
}

// BenchmarkEngineHotLoopIsolated is BenchmarkEngineHotLoop's mem-bound SMT
// pair with hardware QoS enforcement actually engaged: a half/half L3 way
// partition alone, then with a token-bucket throttle on the aggressor. The
// gate pins the cost of the enforcement mechanisms themselves; the
// disabled path needs no twin benchmark because a zero isol.Policy takes
// the exact pre-isolation code path, which EngineHotLoop already gates.
func BenchmarkEngineHotLoopIsolated(b *testing.B) {
	cases := []struct {
		name     string
		throttle bool
	}{
		{"ways-half", false},
		{"ways-half+throttle", true},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			cfg := isa.IvyBridge()
			cfg.Cores = 1
			v, a := isol.SplitWays(cfg.L3.Ways/2, cfg.L3.Ways)
			pol := isol.Policy{WayMasks: []uint64{v, a}}
			if bc.throttle {
				pol.MemBudgets = []isol.MemBudget{{}, {Tokens: 4, RefillCycles: 64}}
			}
			cfg.Isolation = pol
			chip := engine.MustNew(cfg)
			spec, err := workload.ByName("429.mcf")
			if err != nil {
				b.Fatal(err)
			}
			chip.Assign(0, 0, workload.NewGen(spec, 1))
			ps, err := workload.ByName("470.lbm")
			if err != nil {
				b.Fatal(err)
			}
			chip.Assign(0, 1, workload.NewGen(ps, 2))
			chip.Prewarm(60_000)
			chip.Run(10_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chip.Run(5000)
			}
			b.StopTimer()
			if c := chip.Counters(0, 0); c.Instructions == 0 {
				b.Fatal("no forward progress")
			}
		})
	}
}

// BenchmarkTable1MachineConfigs regenerates Table I (machine specifications).
func BenchmarkTable1MachineConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r := lab.Table1()
		if len(r.Machines) != 2 || r.String() == "" {
			b.Fatal("Table 1 incomplete")
		}
	}
}

// BenchmarkFig2FunctionalUnitSenCon regenerates Figure 2: per-application
// sensitivity/contentiousness on the functional-unit dimensions.
func BenchmarkFig2FunctionalUnitSenCon(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig2FunctionalUnitsContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Chars) == 0 {
			b.Fatal("no characterizations")
		}
	}
}

// BenchmarkFig3PortUtilizationCDF regenerates Figures 3 and 5: aggregated
// port-utilisation CDFs over all SPEC co-location pairs.
func BenchmarkFig3PortUtilizationCDF(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig3And5PortUtilizationContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if r.Pairs == 0 {
			b.Fatal("no pairs measured")
		}
		b.ReportMetric(r.Median(4), "port4-median-util")
	}
}

// BenchmarkFig4MemorySenCon regenerates Figure 4: memory-subsystem
// sensitivity/contentiousness.
func BenchmarkFig4MemorySenCon(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		if _, err := lab.Fig4MemorySubsystemContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5MemPortUtilizationCDF regenerates the memory-port half of
// the utilisation study (same runs as Figure 3, reported for ports 2/3/4).
func BenchmarkFig5MemPortUtilizationCDF(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig3And5PortUtilizationContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if r.Median(2) < r.Median(4) {
			// Load ports should dominate the store port (paper Finding).
			b.Log("warning: store port median above load port median at this scale")
		}
	}
}

// BenchmarkFig6SenConSummary regenerates Figure 6: the full
// seven-dimension characterization matrix.
func BenchmarkFig6SenConSummary(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		if _, err := lab.Fig6SummaryContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7CorrelationMatrix regenerates Figure 7: |Pearson|
// correlations across the 14 Sen/Con dimensions.
func BenchmarkFig7CorrelationMatrix(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig7CorrelationContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FracBelow80*100, "%pairs<0.8")
	}
}

// BenchmarkFig9RulerValidation regenerates Figure 9's validation: Ruler
// port saturation and working-set/interference linearity.
func BenchmarkFig9RulerValidation(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig9RulerValidationContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, fu := range r.FU {
			if fu.TargetUtil < 0.999 {
				b.Fatalf("%s target utilisation %.4f", fu.Name, fu.TargetUtil)
			}
		}
	}
}

// BenchmarkFig10SpecSMTPrediction regenerates Figure 10: SMT prediction
// accuracy on SPEC (SMiTe vs the PMU baseline).
func BenchmarkFig10SpecSMTPrediction(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig10SpecSMTContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SmiteEval.MeanAbsError*100, "smite-err-%")
		b.ReportMetric(r.PMUEval.MeanAbsError*100, "pmu-err-%")
	}
}

// BenchmarkFig11SpecCMPPrediction regenerates Figure 11: CMP prediction
// accuracy on SPEC.
func BenchmarkFig11SpecCMPPrediction(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig11SpecCMPContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SmiteEval.MeanAbsError*100, "smite-err-%")
	}
}

// BenchmarkFig12CloudSuitePrediction regenerates Figure 12: CloudSuite
// SMT/CMP prediction accuracy.
func BenchmarkFig12CloudSuitePrediction(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig12CloudSuiteContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, fp := range r.PerPlacement {
			if fp.SmiteErr >= fp.PMUErr {
				b.Log("warning: SMiTe did not beat PMU at this scale")
			}
		}
	}
}

// BenchmarkFig13TailLatencyPrediction regenerates Figure 13: p90 latency
// prediction for the percentile-reporting services.
func BenchmarkFig13TailLatencyPrediction(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig13TailLatencyContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("no percentile-reporting services")
		}
	}
}

// BenchmarkFig14UtilizationAvgQoS regenerates Figures 14/15: the
// average-performance-QoS scale-out study.
func BenchmarkFig14UtilizationAvgQoS(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig14And15AvgQoSContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Cells[0.85][cluster.PolicySMiTe].UtilizationGain*100, "gain85-%")
	}
}

// BenchmarkFig15ViolationsAvgQoS re-reports the violation half of the
// average-QoS study (same runs as Figure 14).
func BenchmarkFig15ViolationsAvgQoS(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig14And15AvgQoSContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sm := r.Cells[0.90][cluster.PolicySMiTe]
		rd := r.Cells[0.90][cluster.PolicyRandom]
		b.ReportMetric(sm.ViolationFrac*100, "smite-viol-%")
		b.ReportMetric(rd.ViolationFrac*100, "random-viol-%")
	}
}

// BenchmarkFig16UtilizationTailQoS regenerates Figures 16/17: the
// tail-latency-QoS scale-out study.
func BenchmarkFig16UtilizationTailQoS(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig16And17TailQoSContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Cells[0.85][cluster.PolicySMiTe].UtilizationGain*100, "gain85-%")
	}
}

// BenchmarkFig17ViolationsTailQoS re-reports the violation half of the
// tail-QoS study.
func BenchmarkFig17ViolationsTailQoS(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig16And17TailQoSContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Cells[0.90][cluster.PolicyRandom].ViolationFrac*100, "random-viol-%")
	}
}

// BenchmarkFig18TCO regenerates Figure 18: the 3-year TCO analysis.
func BenchmarkFig18TCO(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.Fig18TCOContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		best := 0.0
		for _, row := range r.Rows {
			if row.Improvement > best {
				best = row.Improvement
			}
		}
		b.ReportMetric(best*100, "best-tco-saving-%")
	}
}

// BenchmarkModelAblation runs the model-comparison ablation: SMiTe NNLS/OLS,
// a Bubble-Up-style single-metric model, and the PMU-baseline family.
func BenchmarkModelAblation(b *testing.B) {
	skipMacroBench(b)
	for i := 0; i < b.N; i++ {
		lab := newLab()
		r, err := lab.ModelAblationContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 {
			b.Fatalf("expected 6 models, got %d", len(r.Rows))
		}
	}
}

// BenchmarkAblationStreamPrefetcher quantifies the stream-prefetcher design
// choice called out in DESIGN.md: the IPC of a sequential-stream workload
// with the prefetcher on versus off.
func BenchmarkAblationStreamPrefetcher(b *testing.B) {
	skipMacroBench(b)
	run := func(prefetch bool) float64 {
		cfg := isa.IvyBridge()
		cfg.Cores = 2
		cfg.StreamPrefetcher = prefetch
		spec, err := workload.ByName("470.lbm")
		if err != nil {
			b.Fatal(err)
		}
		res, err := profile.Solo(cfg, profile.App(spec), profile.FastOptions())
		if err != nil {
			b.Fatal(err)
		}
		return res.AppIPC
	}
	for i := 0; i < b.N; i++ {
		with, without := run(true), run(false)
		b.ReportMetric(with, "ipc-prefetch")
		b.ReportMetric(without, "ipc-noprefetch")
		if with <= without {
			b.Fatal("prefetcher should speed up streaming")
		}
	}
}

// BenchmarkAblationL3Replacement quantifies the L2/L3 random-replacement
// design choice: the co-location degradation cliff of a cache-resident app
// against a thrashing neighbour under LRU versus random replacement.
func BenchmarkAblationL3Replacement(b *testing.B) {
	skipMacroBench(b)
	measure := func(policy isa.ReplacementPolicy) float64 {
		cfg := isa.IvyBridge()
		cfg.Cores = 2
		cfg.L3.Policy = policy
		cfg.L2.Policy = policy
		a, err := workload.ByName("401.bzip2")
		if err != nil {
			b.Fatal(err)
		}
		bb, err := workload.ByName("483.xalancbmk")
		if err != nil {
			b.Fatal(err)
		}
		p := profile.NewProfiler(cfg, profile.FastOptions())
		pm, err := p.MeasurePair(a, bb, profile.SMT)
		if err != nil {
			b.Fatal(err)
		}
		return pm.DegA
	}
	for i := 0; i < b.N; i++ {
		lru, random := measure(isa.PolicyLRU), measure(isa.PolicyRandom)
		b.ReportMetric(lru*100, "deg-lru-%")
		b.ReportMetric(random*100, "deg-random-%")
	}
}

// BenchmarkCheckerOverhead measures the cost of the runtime invariant
// checker (internal/sim/check) on a representative SMT co-location run.
// Every other benchmark in this file runs checker-disabled — the unchecked
// fast path is a single nil comparison per cycle; the checked sub-benchmark
// documents what tests pay for continuous verification at the default
// interval. Target: within ~5% of the unchecked runtime.
func BenchmarkCheckerOverhead(b *testing.B) {
	cfg := isa.IvyBridge()
	cfg.Cores = 2
	mcf, err := workload.ByName("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	namd, err := workload.ByName("444.namd")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		check bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := profile.FastOptions()
			opts.Check = mode.check
			for i := 0; i < b.N; i++ {
				res, err := profile.Colocate(cfg, profile.App(namd), profile.App(mcf), profile.SMT, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.AppIPC <= 0 {
					b.Fatal("no progress")
				}
			}
		})
	}
}

// BenchmarkTraceOverheadDisabled measures the engine hot loop through
// RunContext with observability disabled: background context, no sampler,
// no tracer. That is the exact path every simulation takes when the obs
// subsystem is off, so its ns/op must stay within noise of
// EngineHotLoop/mem-bound-smt (the same workload through plain Run) — the
// hooks are a nil comparison, not a cost. The CI bench job gates this
// number against BENCH_baseline.json.
func BenchmarkTraceOverheadDisabled(b *testing.B) {
	cfg := isa.IvyBridge()
	cfg.Cores = 1
	chip := engine.MustNew(cfg)
	spec, err := workload.ByName("429.mcf")
	if err != nil {
		b.Fatal(err)
	}
	chip.Assign(0, 0, workload.NewGen(spec, 1))
	partner, err := workload.ByName("470.lbm")
	if err != nil {
		b.Fatal(err)
	}
	chip.Assign(0, 1, workload.NewGen(partner, 2))
	chip.Prewarm(60_000)
	chip.Run(10_000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chip.RunContext(ctx, 5000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if c := chip.Counters(0, 0); c.Instructions == 0 {
		b.Fatal("no forward progress")
	}
}

// BenchmarkQosdPredict measures the smited serving hot path as a
// scheduler client sees it: HTTP round-trip, JSON codec, registry
// snapshot and the memoized Equation 3 evaluation. One op is a burst of
// 256 keep-alive requests, so single-iteration CI runs (-benchtime 1x)
// still average over enough round-trips to gate on. The CI bench job
// compares ns/op against BENCH_baseline.json.
func BenchmarkQosdPredict(b *testing.B) {
	const burst = 256
	victim := smite.Characterization{App: "web-search", SoloIPC: 1.2}
	aggr := smite.Characterization{App: "429.mcf", SoloIPC: 0.5}
	var coef [smite.NumDimensions]float64
	for d := range victim.Sen {
		victim.Sen[d] = 0.05 * float64(d+1)
		aggr.Con[d] = 0.1 * float64(d+1)
		coef[d] = 0.2
	}
	reg := qosd.NewRegistry()
	reg.AddProfiles([]smite.Characterization{victim, aggr})
	reg.SetModel(smite.NewModel(coef, 0.01))
	ts := httptest.NewServer(qosd.NewServer(reg, qosd.Config{}).Handler())
	defer ts.Close()
	c := qosd.NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	req := qosd.PredictRequest{Victim: "web-search", Aggressor: "429.mcf"}
	if _, err := c.Predict(ctx, req); err != nil {
		b.Fatal(err) // warm the connection and the prediction memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if _, err := c.Predict(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQosdPredictTraced is BenchmarkQosdPredict with per-request span
// tracing on (?trace=1 against an EnableTrace server): every request
// allocates a tracer, records the route, predict and memo spans, and
// renders the Chrome trace for /debug/trace/last. The delta against
// QosdPredict is the full per-request cost of tracing; the CI bench job
// gates it against BENCH_baseline.json so the traced path cannot silently
// balloon.
func BenchmarkQosdPredictTraced(b *testing.B) {
	const burst = 256
	victim := smite.Characterization{App: "web-search", SoloIPC: 1.2}
	aggr := smite.Characterization{App: "429.mcf", SoloIPC: 0.5}
	var coef [smite.NumDimensions]float64
	for d := range victim.Sen {
		victim.Sen[d] = 0.05 * float64(d+1)
		aggr.Con[d] = 0.1 * float64(d+1)
		coef[d] = 0.2
	}
	reg := qosd.NewRegistry()
	reg.AddProfiles([]smite.Characterization{victim, aggr})
	reg.SetModel(smite.NewModel(coef, 0.01))
	ts := httptest.NewServer(qosd.NewServer(reg, qosd.Config{EnableTrace: true}).Handler())
	defer ts.Close()
	// Raw POSTs: the typed client has no query-parameter surface.
	url := ts.URL + "/v1/predict?trace=1"
	const body = `{"victim":"web-search","aggressor":"429.mcf"}`
	post := func() error {
		resp, err := ts.Client().Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("predict = %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil {
		b.Fatal(err) // warm the connection and the prediction memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCharacterizeAllParallel measures the parallel characterization
// scheduler end to end through the public API: a fresh System (fresh
// simulation cache, so every cell genuinely simulates) characterizes four
// SPEC applications at worker counts 1 and 8. The flat-cell fan-out in
// internal/profile gives ~44 independent cells, so on a multi-core runner
// the workers-8 sub-benchmark should approach the core count's speedup
// over workers-1; on a single-core machine the two converge. The CI bench
// job gates ns/op of both against BENCH_baseline.json, catching both a
// slowdown of the simulation substrate and a scheduler regression that
// serializes the fan-out.
func BenchmarkCharacterizeAllParallel(b *testing.B) {
	skipMacroBench(b)
	var specs []*smite.Spec
	for _, n := range []string{"444.namd", "429.mcf", "453.povray", "470.lbm"} {
		s, err := workload.ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, s)
	}
	// Sub-benchmark names must not end in "-<digits>": benchci strips a
	// trailing -N as the GOMAXPROCS suffix when normalizing names.
	for _, bc := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par8", 8}} {
		workers := bc.workers
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := smite.New(smite.IvyBridge.Config(),
					smite.WithOptions(smite.FastOptions()),
					smite.WithParallelism(workers))
				if err != nil {
					b.Fatal(err)
				}
				chars, err := sys.CharacterizeAll(specs, smite.SMT)
				if err != nil {
					b.Fatal(err)
				}
				if len(chars) != len(specs) {
					b.Fatalf("got %d characterizations, want %d", len(chars), len(specs))
				}
			}
		})
	}
}

// fitBenchSpecs resolves the two-application working set shared by the
// surrogate benchmarks and the speedup acceptance test.
func fitBenchSpecs(tb testing.TB) []*smite.Spec {
	tb.Helper()
	var specs []*smite.Spec
	for _, n := range []string{"444.namd", "429.mcf"} {
		s, err := workload.ByName(n)
		if err != nil {
			tb.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestSurrogateSpeedup pins the tentpole's acceptance figure: once a set
// is fitted (the one-time cost a profile store amortizes away), answering
// the same characterization + prediction queries from the surrogate must
// be at least 10x faster than the engine-only baseline. The real measured
// gap is many orders of magnitude (nanoseconds against seconds), so the
// 10x assert is lenient enough that CI scheduling noise cannot flip it.
func TestSurrogateSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("engine baseline characterization in short mode")
	}
	specs := fitBenchSpecs(t)
	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	set, err := sys.Fit(context.Background(), specs, smite.SMT, smite.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var coef [smite.NumDimensions]float64
	for d := range coef {
		coef[d] = 0.2
	}
	m := smite.NewModel(coef, 0.01)

	// Engine-only baseline: a fresh System (cold caches) measures the full
	// characterization the decision path would otherwise need.
	start := time.Now()
	fresh, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.CharacterizeAll(specs, smite.SMT); err != nil {
		t.Fatal(err)
	}
	engineTime := time.Since(start)

	const queries = 100
	start = time.Now()
	for i := 0; i < queries; i++ {
		if chars := set.Characterizations(); len(chars) != len(specs) {
			t.Fatalf("got %d characterizations, want %d", len(chars), len(specs))
		}
		if _, err := m.PredictSurrogate(set, "444.namd", "429.mcf"); err != nil {
			t.Fatal(err)
		}
	}
	surrogateTime := time.Since(start) / queries

	t.Logf("engine baseline %v, surrogate %v per query (%.0fx)",
		engineTime, surrogateTime, float64(engineTime)/float64(surrogateTime))
	if engineTime < 10*surrogateTime {
		t.Errorf("surrogate path is only %.1fx faster than the engine baseline (%v vs %v), want >= 10x",
			float64(engineTime)/float64(surrogateTime), surrogateTime, engineTime)
	}
}

// BenchmarkSurrogatePredict measures the surrogate tier's answer latency:
// a set is fitted once (setup, not timed) and then queried through the
// same Model.PredictSurrogate path qosd serves. The whole point of the
// tier is microsecond answers, so the CI bench job gates this tightly —
// the acceptance target is <10 µs/op.
func BenchmarkSurrogatePredict(b *testing.B) {
	specs := fitBenchSpecs(b)
	sys, err := smite.New(smite.IvyBridge.Config(), smite.WithOptions(smite.FastOptions()))
	if err != nil {
		b.Fatal(err)
	}
	set, err := sys.Fit(context.Background(), specs, smite.SMT, smite.FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var coef [smite.NumDimensions]float64
	for d := range coef {
		coef[d] = 0.2
	}
	m := smite.NewModel(coef, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := m.PredictSurrogate(set, "444.namd", "429.mcf")
		if err != nil {
			b.Fatal(err)
		}
		if pred.Bound < 0 {
			b.Fatal("negative bound")
		}
	}
}

// BenchmarkCharacterizeBatched measures the batched fitter sweep end to
// end: one fresh System per iteration fits both applications across the
// standard intensity grid, so every (dimension, intensity) cell simulates
// through the per-worker batched engine path with amortized setup. Gated
// against BENCH_baseline.json alongside CharacterizeAllParallel, its
// unbatched single-intensity counterpart.
func BenchmarkCharacterizeBatched(b *testing.B) {
	skipMacroBench(b)
	specs := fitBenchSpecs(b)
	for i := 0; i < b.N; i++ {
		sys, err := smite.New(smite.IvyBridge.Config(),
			smite.WithOptions(smite.FastOptions()),
			smite.WithParallelism(8))
		if err != nil {
			b.Fatal(err)
		}
		set, err := sys.Fit(context.Background(), specs, smite.SMT, smite.FitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(set.Models) != len(specs) {
			b.Fatalf("got %d models, want %d", len(set.Models), len(specs))
		}
	}
}

// clusterSimBench assembles a discrete-event cluster run on a synthetic
// co-location world: surrogate tier first, measured-table fallback, QoS
// surface precomputed once through the Predictor seam. Shared setup for
// the two cluster-scale benchmarks below.
func clusterSimBench(b *testing.B, machines int, arrival float64) (cluster.SimConfig, [][]clusterworkload.Event) {
	b.Helper()
	const nLat, nBatch, maxInst = 3, 4, 6
	set, tbl, err := cluster.SyntheticWorld(nLat, nBatch, maxInst, 23)
	if err != nil {
		b.Fatal(err)
	}
	pred := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	pt, err := cluster.BuildPredTable(context.Background(), tbl, nil, cluster.QoSAvg, pred, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.SimConfig{
		Workload: clusterworkload.Config{
			Machines: machines, Horizon: 1,
			Lats: nLat, Batches: nBatch, Seed: 23,
			ArrivalRate:  arrival,
			MeanDuration: 0.005,
			Diurnal:      0.4,
			BurstProb:    0.1, BurstFactor: 2.5,
			Drift: 0.2,
			Churn: 0.02,
		},
		Shards:            16,
		Policy:            cluster.PolicySMiTe,
		Target:            0.92,
		ThreadsPerServer:  6,
		ContextsPerServer: 12,
		Table:             pt,
	}
	events, err := cluster.GenerateEvents(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, events
}

// BenchmarkClusterSim10k is the warehouse-scale acceptance number as a
// gated benchmark: a 10k-machine fleet under temporal arrivals, churn and
// contention-aware placement, ~300k events per iteration fanned across
// all cores. events/sec is the headline custom metric; ns/op and
// allocs/op are gated by benchci against BENCH_baseline.json.
func BenchmarkClusterSim10k(b *testing.B) {
	cfg, events := clusterSimBench(b, 10_000, 150_000)
	b.ReportAllocs()
	b.ResetTimer()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(context.Background(), cfg, events, 0)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClusterPlacementIncremental isolates the incremental placement
// path: a dense arrival stream on a small fleet, sequential execution, so
// ns/op tracks the per-decision cost of the occupancy-bucket admission
// scan rather than shard fan-out overheads.
func BenchmarkClusterPlacementIncremental(b *testing.B) {
	cfg, events := clusterSimBench(b, 200, 40_000)
	cfg.Workload.Churn = 0
	events, err := cluster.GenerateEvents(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(context.Background(), cfg, events, 1)
		if err != nil {
			b.Fatal(err)
		}
		decisions += res.Arrived
	}
	b.StopTimer()
	b.ReportMetric(float64(decisions)/b.Elapsed().Seconds(), "decisions/sec")
}

// BenchmarkQosdAdmit measures the full /v1/admit round trip: the tiered
// prediction plus the Eq. 6 admission check and the saturation analyzer's
// bookkeeping, over a keep-alive connection in bursts of 256 like
// QosdPredict. The delta against QosdPredict is the per-decision cost of
// the SLO gate itself.
func BenchmarkQosdAdmit(b *testing.B) {
	const burst = 256
	victim := smite.Characterization{App: "web-search", SoloIPC: 1.2}
	aggr := smite.Characterization{App: "429.mcf", SoloIPC: 0.5}
	var coef [smite.NumDimensions]float64
	for d := range victim.Sen {
		victim.Sen[d] = 0.05 * float64(d+1)
		aggr.Con[d] = 0.1 * float64(d+1)
		coef[d] = 0.2
	}
	reg := qosd.NewRegistry()
	reg.AddProfiles([]smite.Characterization{victim, aggr})
	reg.SetModel(smite.NewModel(coef, 0.01))
	slo := &qosd.SLOConfig{Classes: qosd.DefaultSLOClasses(), Headroom: 0.1}
	ts := httptest.NewServer(qosd.NewServer(reg, qosd.Config{SLO: slo}).Handler())
	defer ts.Close()
	c := qosd.NewClient(ts.URL, ts.Client())
	ctx := context.Background()
	req := qosd.AdmitRequest{
		Victim: "web-search", Aggressor: "429.mcf", Class: "standard",
		Queue: qosd.QueueSpec{Mu: 1000, Lambda: 600},
	}
	if _, err := c.Admit(ctx, req); err != nil {
		b.Fatal(err) // warm the connection and the prediction memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if _, err := c.Admit(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClusterSimSLOPolicy is BenchmarkClusterSim10k under the SLO
// admission policy: the same 10k-machine fleet with placement gated by
// the precomputed per-cell admission surface instead of the QoS floor.
// The delta against ClusterSim10k is the cost of building the gate plus
// any per-decision difference in the placement scan.
func BenchmarkClusterSimSLOPolicy(b *testing.B) {
	cfg, events := clusterSimBench(b, 10_000, 150_000)
	cfg.Policy = cluster.PolicySLO
	cfg.SLO = &cluster.SLOSimParams{
		Classes: []cluster.SLOSimClass{
			{Name: "critical", Budget: 0.020, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "standard", Budget: 0.060, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "sheddable", Budget: 0.150, Percentile: 0.90, Mu: 1000, Lambda: 700},
		},
		Headroom: 0.1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(context.Background(), cfg, events, 0)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkClusterSimIsolation is the SLO-policy benchmark with the
// hardware enforcement ladder engaged: same 10k-machine fleet and event
// stream, PolicyIsolation with the stock four-level ladder. The gate pins
// the cost of the extra (gen, level) bucket dimensions and the
// escalate-before-migrate pass in the placement hot path.
func BenchmarkClusterSimIsolation(b *testing.B) {
	cfg, events := clusterSimBench(b, 10_000, 150_000)
	cfg.Policy = cluster.PolicyIsolation
	cfg.SLO = &cluster.SLOSimParams{
		Classes: []cluster.SLOSimClass{
			{Name: "critical", Budget: 0.020, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "standard", Budget: 0.060, Percentile: 0.95, Mu: 1000, Lambda: 600},
			{Name: "sheddable", Budget: 0.150, Percentile: 0.90, Mu: 1000, Lambda: 700},
		},
		Headroom: 0.1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunSim(context.Background(), cfg, events, 0)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
}

// benchSource is a no-measurement re-characterization source for
// BenchmarkClosedLoopStep: it hands back fresh copies of the synthetic
// world's surrogate models so the benchmark isolates the controller's
// own cost (flag bookkeeping, model merge, atomic swap, detector reset)
// from the engine sweep a real source would run.
type benchSource struct {
	models map[string]*surrogate.Model
}

func (s *benchSource) Recharacterize(_ context.Context, apps []string) (map[string]*surrogate.Model, error) {
	out := make(map[string]*surrogate.Model, len(apps))
	for _, app := range apps {
		m := *s.models[app]
		out[app] = &m
	}
	return out, nil
}

// BenchmarkPredictorSeam measures the unified Predict seam end to end:
// one TieredPredictor.Predict call per (lat, batch, n) cell of a
// synthetic world, covering both the surrogate hit path (closed-form
// curves plus the certificate check) and the table fallback. ns/op is
// per full sweep; predictions/sec is the headline custom metric.
func BenchmarkPredictorSeam(b *testing.B) {
	const nLat, nBatch, maxInst = 4, 6, 6
	set, tbl, err := cluster.SyntheticWorld(nLat, nBatch, maxInst, 7)
	if err != nil {
		b.Fatal(err)
	}
	tiered := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	lats := make([]string, nLat)
	for i := range lats {
		lats[i] = fmt.Sprintf("latsvc-%02d", i)
	}
	batches := make([]string, nBatch)
	for i := range batches {
		batches[i] = fmt.Sprintf("batch-%02d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	calls := 0
	for i := 0; i < b.N; i++ {
		for _, lat := range lats {
			for _, batch := range batches {
				for n := 1; n <= maxInst; n++ {
					if _, err := tiered.Predict(lat, batch, n); err != nil {
						b.Fatal(err)
					}
					calls++
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(calls)/b.Elapsed().Seconds(), "predictions/sec")
}

// BenchmarkClosedLoopStep measures one full closed-loop cycle: stream
// drift-confirming observations into the controller, then Step —
// re-characterize the flagged app through a canned source, hot-swap the
// refreshed set behind the tiered predictor, and reset the detector.
// ns/op is the per-cycle actuation cost excluding any real engine sweep.
func BenchmarkClosedLoopStep(b *testing.B) {
	const nLat, nBatch, maxInst = 2, 2, 4
	set, tbl, err := cluster.SyntheticWorld(nLat, nBatch, maxInst, 11)
	if err != nil {
		b.Fatal(err)
	}
	tiered := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: maxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	src := &benchSource{models: make(map[string]*surrogate.Model, len(set.Models))}
	for app, m := range set.Models {
		refreshed := *m
		src.models[app] = &refreshed
	}
	c := ctrl.New(ctrl.Config{
		Detector: ctrl.DetectorConfig{MinSamples: 2, Threshold: 0.1},
		Source:   src,
		Tiered:   tiered,
	})
	ctx := context.Background()
	pred := cluster.Prediction{Deg: 0.1, Bound: 0.01, Tier: cluster.TierSurrogate}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		confirmed := false
		for j := 0; j < 10 && !confirmed; j++ {
			confirmed = c.Observe("latsvc-00", 3, 0.5, pred)
		}
		if !confirmed {
			b.Fatal("drift never confirmed")
		}
		if _, err := c.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
