package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"

	"repro/internal/experiments"
	"repro/internal/obs/trace"
	"repro/internal/sched"
)

// paperWorkload runs every cmd/figures step at experiments.TestScale, in
// figures order, on the fresh Lab (cold simcache) of its set-up.
type paperWorkload struct {
	scale experiments.Scale
	lab   *experiments.Lab
}

// paperStep is one cmd/figures step.
type paperStep struct {
	id  string
	run func(context.Context, *experiments.Lab) (fmt.Stringer, error)
}

var paperStepFuncs = []paperStep{
	{"table1", func(_ context.Context, l *experiments.Lab) (fmt.Stringer, error) { return l.Table1(), nil }},
	{"fig2", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig2FunctionalUnitsContext(ctx)
	}},
	{"fig3", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig3And5PortUtilizationContext(ctx)
	}},
	{"fig4", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig4MemorySubsystemContext(ctx)
	}},
	{"fig6", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) { return l.Fig6SummaryContext(ctx) }},
	{"fig7", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig7CorrelationContext(ctx)
	}},
	{"fig9", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig9RulerValidationContext(ctx)
	}},
	{"fig10", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) { return l.Fig10SpecSMTContext(ctx) }},
	{"fig11", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) { return l.Fig11SpecCMPContext(ctx) }},
	{"fig12", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig12CloudSuiteContext(ctx)
	}},
	{"fig13", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig13TailLatencyContext(ctx)
	}},
	{"fig14", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig14And15AvgQoSContext(ctx)
	}},
	{"fig16", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.Fig16And17TailQoSContext(ctx)
	}},
	{"fig18", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) { return l.Fig18TCOContext(ctx) }},
	{"ablation", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) {
		return l.ModelAblationContext(ctx)
	}},
	{"crossmachine", func(ctx context.Context, l *experiments.Lab) (fmt.Stringer, error) { return l.CrossMachineContext(ctx) }},
}

// nonFinite matches a NaN or an infinity as printed by fmt.
var nonFinite = regexp.MustCompile(`\bNaN\b|[+-]?\bInf\b`)

// setupPaper builds the test-scale Lab a unit runs on. The seed
// becomes the measurement windows' BaseSeed, so every simulated
// instruction stream derives from it. tiny is the same pipeline: the
// test scale is already the smallest one every step supports.
func setupPaper(seed uint64, _ bool) (workload, map[string]float64, error) {
	scale := experiments.TestScale()
	scale.Options.BaseSeed = seed
	return &paperWorkload{scale: scale, lab: experiments.NewLab(scale)}, nil, nil
}

func (w *paperWorkload) unit(ctx context.Context) (unitResult, error) {
	lab := w.lab
	u := unitResult{counters: map[string]float64{}}
	h := sha256.New()
	watch := startWatch()
	for _, s := range paperStepFuncs {
		sctx, span := trace.Start(ctx, "experiments."+s.id)
		out, err := s.run(sctx, lab)
		span.End()
		u.attempted++
		text := ""
		if err == nil {
			text = out.String()
		}
		if err != nil || nonFinite.MatchString(text) {
			u.failed++
		}
		fmt.Fprintf(h, "%s\n%s\n", s.id, text)
	}
	u.wall, u.cpu = watch.stop()
	// The caller of the pipeline waits for all of it: one request per
	// unit. Step times range from microseconds to seconds, so their
	// median says nothing about the pipeline.
	u.requests = []float64{u.wall.Seconds()}
	u.work = float64(len(paperStepFuncs))
	u.digest = hex.EncodeToString(h.Sum(nil))
	st := lab.CacheStats()
	u.counters["simcache.hits"] = float64(st.Hits)
	u.counters["simcache.misses"] = float64(st.Misses)
	return u, nil
}

func (w *paperWorkload) layers(traced []tracedUnit, untraced []unitResult) map[string]float64 {
	m := map[string]float64{}
	t := traced[0]
	ss := t.spans
	for _, s := range paperSteps {
		if sp := ss.named("experiments." + s); len(sp) == 1 {
			m["experiments."+s+"_s"] = dur(sp[0]).Seconds()
		}
	}

	sims := ss.named("profile.simulate")
	var simMS []float64
	for _, s := range sims {
		simMS = append(simMS, dur(s).Seconds()*1e3)
	}
	m["profile.simulate_runs"] = float64(len(sims))
	m["profile.simulate_ms_p50"] = median(simMS)
	m["profile.characterize_count"] = float64(len(ss.named("profile.characterize")))
	prewarm, warmup, measure := ss.named("profile.prewarm"), ss.named("profile.warmup"), ss.named("profile.measure")
	m["profile.prewarm_s"] = totalSeconds(prewarm)
	m["profile.warmup_s"] = totalSeconds(warmup)
	m["profile.measure_s"] = totalSeconds(measure)
	m["profile.prewarm_share"] = ratio(m["profile.prewarm_s"], m["profile.prewarm_s"]+m["profile.warmup_s"]+m["profile.measure_s"])

	m["engine.sim_cycles"] = sumAttr(warmup, "cycles") + sumAttr(measure, "cycles")
	m["engine.cycles_per_s"] = ratio(m["engine.sim_cycles"], m["profile.warmup_s"]+m["profile.measure_s"])
	m["engine.prewarm_uops"] = sumAttr(prewarm, "uops")
	m["engine.prewarm_uops_per_s"] = ratio(m["engine.prewarm_uops"], m["profile.prewarm_s"])

	m["simcache.hits"] = t.counters["simcache.hits"]
	m["simcache.misses"] = t.counters["simcache.misses"]
	m["simcache.hit_ratio"] = ratio(m["simcache.hits"], m["simcache.hits"]+m["simcache.misses"])
	var waits []trace.SpanRecord
	for _, s := range ss.named("simcache.lookup") {
		if attr(s, "outcome") == "wait" {
			waits = append(waits, s)
		}
	}
	m["simcache.wait_s"] = totalSeconds(waits)

	// Busy time counts only outermost sched.task spans: a task of a nested
	// Map runs inside its parent task's interval.
	var busy []trace.SpanRecord
	for _, s := range ss.named("sched.task") {
		if !ss.hasAncestor(s, "sched.task") {
			busy = append(busy, s)
		}
	}
	workers := float64(sched.Workers(w.scale.Options.Parallelism))
	m["sched.busy_frac"] = ratio(totalSeconds(busy), workers*t.wall.Seconds())
	return m
}

func (w *paperWorkload) close() {}
