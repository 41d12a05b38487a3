// Package experiments implements one driver per table and figure of the
// paper's evaluation (Section IV), producing the same rows and series the
// paper reports. DESIGN.md carries the experiment index; EXPERIMENTS.md
// records paper-versus-measured values from a full-scale run.
//
// All drivers hang off a Lab, which owns the two machine configurations
// (Table I), memoises application characterizations and trained models so
// that later figures reuse earlier figures' measurements, and scales every
// experiment through a Scale so tests and benchmarks can run reduced
// versions of the same code paths.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim/isa"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// workers bounds experiment-level fan-out, honouring the scale's
// Options.Parallelism (0 = GOMAXPROCS).
func (l *Lab) workers() int { return sched.Workers(l.Scale.Options.Parallelism) }

// Scale sizes an experiment run.
type Scale struct {
	// Options are the measurement windows.
	Options profile.Options
	// IvyBridgeCores/SandyBridgeCores override core counts (0 keeps the
	// stock configuration). Reducing cores speeds tests but caps CloudSuite
	// thread counts.
	IvyBridgeCores   int
	SandyBridgeCores int
	// MaxSpecApps truncates the SPEC train/test sets (0 = all).
	MaxSpecApps int
	// MaxCloudApps truncates the CloudSuite set (0 = all).
	MaxCloudApps int
	// MaxPairApps bounds the per-set app count for the all-pairs port
	// utilisation study (0 = all 29).
	MaxPairApps int
	// RulerSweepPoints is the intensity sweep resolution for the Ruler
	// linearity validation.
	RulerSweepPoints int
	// ServersPerApp sizes the scale-out cluster (paper: 1,000 per app).
	ServersPerApp int
	// TailRequests sizes the queueing simulations of the tail studies.
	TailRequests int
}

// FullScale reproduces the paper's experiment sizes.
func FullScale() Scale {
	return Scale{
		Options:          profile.DefaultOptions(),
		RulerSweepPoints: 4,
		ServersPerApp:    1000,
		TailRequests:     200_000,
	}
}

// TestScale is a reduced configuration exercising the same code paths
// quickly (for tests and benchmarks).
func TestScale() Scale {
	return Scale{
		Options:          profile.FastOptions(),
		IvyBridgeCores:   2,
		SandyBridgeCores: 4,
		MaxSpecApps:      8,
		MaxCloudApps:     2,
		MaxPairApps:      6,
		RulerSweepPoints: 3,
		ServersPerApp:    100,
		TailRequests:     20_000,
	}
}

// Lab owns configurations, profilers and memoised measurements.
type Lab struct {
	Scale Scale
	// IVB is the Ivy Bridge configuration used for the SPEC experiments
	// (Figures 10 and 11); SNB the Sandy Bridge-EN configuration used for
	// the CloudSuite and scale-out experiments.
	IVB isa.Config
	SNB isa.Config

	ivb *profile.Profiler
	snb *profile.Profiler

	mu     sync.Mutex
	chars  map[string]*charFlight // machine|placement|set-hash → single-flight entry
	models map[string]model.Smite
	pmus   map[string]model.PMULinear
	cloud  *cloudFlight

	// charRuns counts characterization fan-outs that actually executed
	// (i.e. single-flight misses); the concurrency tests assert on it.
	charRuns atomic.Uint64
}

// charFlight is one single-flight memo entry of Characterizations,
// mirroring internal/simcache: the first caller computes while later
// callers of the same key block on done; a failed flight is removed
// before done closes so waiters retry instead of caching the error.
type charFlight struct {
	done  chan struct{}
	byApp map[string]profile.Characterization // written before close(done)
	ok    bool                                // false: flight failed, entry removed
}

// cloudFlight single-flights cloudStudyData the same way.
type cloudFlight struct {
	done chan struct{}
	cs   *cloudStudy
	ok   bool
}

// Machine selects one of the Lab's two configurations.
type Machine int

const (
	// IvyBridge is the i7-3770 (SPEC experiments).
	IvyBridge Machine = iota
	// SandyBridgeEN is the Xeon E5-2420 (CloudSuite and scale-out).
	SandyBridgeEN
)

// String names the machine.
func (m Machine) String() string {
	if m == IvyBridge {
		return "Ivy Bridge"
	}
	return "Sandy Bridge-EN"
}

// NewLab builds a lab at the given scale. All drivers share one simulation
// cache (the machine configuration is part of every cache key, so the two
// profilers cannot collide), letting figures that revisit the same
// co-location — e.g. training and evaluation over the same pair set —
// simulate it once.
func NewLab(scale Scale) *Lab {
	ivb := isa.IvyBridge()
	if scale.IvyBridgeCores > 0 {
		ivb.Cores = scale.IvyBridgeCores
	}
	snb := isa.SandyBridgeEN()
	if scale.SandyBridgeCores > 0 {
		snb.Cores = scale.SandyBridgeCores
	}
	if scale.Options.Cache == nil {
		scale.Options.Cache = simcache.New[profile.RunResult]()
	}
	return &Lab{
		Scale:  scale,
		IVB:    ivb,
		SNB:    snb,
		ivb:    profile.NewProfiler(ivb, scale.Options),
		snb:    profile.NewProfiler(snb, scale.Options),
		chars:  make(map[string]*charFlight),
		models: make(map[string]model.Smite),
		pmus:   make(map[string]model.PMULinear),
	}
}

// Profiler returns the profiler for a machine.
func (l *Lab) Profiler(m Machine) *profile.Profiler {
	if m == IvyBridge {
		return l.ivb
	}
	return l.snb
}

// Config returns a machine's configuration.
func (l *Lab) Config(m Machine) isa.Config {
	if m == IvyBridge {
		return l.IVB
	}
	return l.SNB
}

// CacheStats reports the lab-wide simulation-cache counters.
func (l *Lab) CacheStats() simcache.Stats {
	if l.Scale.Options.Cache == nil {
		return simcache.Stats{}
	}
	return l.Scale.Options.Cache.Stats()
}

// specSet truncates a SPEC set per the scale, sampling evenly across the
// list so a reduced set keeps the population's diversity (compute-dense,
// streaming and cache-thrashing applications all survive truncation).
func (l *Lab) specSet(set []*workload.Spec) []*workload.Spec {
	max := l.Scale.MaxSpecApps
	if max <= 0 || len(set) <= max {
		return set
	}
	out := make([]*workload.Spec, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, set[i*len(set)/max])
	}
	return out
}

// cloudSet truncates the CloudSuite set per the scale. It does not touch
// thread counts: clamping multithreaded applications to a reduced core
// count happens where the specs become Jobs — Characterizations caps
// AppThreads at the machine's core count, and cloudStudyData sizes
// latency jobs from cloudThreads().
func (l *Lab) cloudSet() []*workload.Spec {
	set := workload.CloudSuiteApps()
	if l.Scale.MaxCloudApps > 0 && len(set) > l.Scale.MaxCloudApps {
		set = set[:l.Scale.MaxCloudApps]
	}
	return set
}

// cloudThreads is the per-server thread count of latency applications: one
// per core (half load).
func (l *Lab) cloudThreads() int { return l.SNB.Cores }

// CharacterizationsContext returns (and memoises) the characterizations of
// a set of applications on a machine under a placement. The memo key
// derives from the set's contents, so equal sets share work regardless of
// how a caller names them. The memo is single-flight per key: concurrent
// callers of the same missing key block on one characterization fan-out and
// share its result instead of each running the full sweep and discarding
// all but one (the check-then-act race this replaces). Cancellation is
// cooperative: the characterization fan-out aborts mid-simulation when ctx
// is cancelled, and a waiter blocked on another caller's flight stops
// waiting when its own ctx dies (the flight itself is unaffected). A
// cancelled leader's flight caches nothing, so later callers retry.
func (l *Lab) CharacterizationsContext(ctx context.Context, m Machine, placement profile.Placement, set []*workload.Spec, setName string) ([]profile.Characterization, error) {
	_ = setName // kept in the signature for log readability at call sites
	names := make([]string, len(set))
	for i, s := range set {
		names[i] = s.Name
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	h := fnv.New64a()
	for _, n := range sorted {
		_, _ = h.Write([]byte(n))
		_, _ = h.Write([]byte{0})
	}
	key := fmt.Sprintf("%d|%d|%x", m, placement, h.Sum64())
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		l.mu.Lock()
		if f, ok := l.chars[key]; ok {
			l.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if !f.ok {
				continue // that flight failed; try to compute ourselves
			}
			out := make([]profile.Characterization, len(set))
			for i, s := range set {
				out[i] = f.byApp[s.Name]
			}
			return out, nil
		}
		f := &charFlight{done: make(chan struct{})}
		l.chars[key] = f
		l.mu.Unlock()

		chars, err := l.characterizeSet(ctx, m, placement, set)
		if err != nil {
			l.mu.Lock()
			delete(l.chars, key)
			l.mu.Unlock()
			close(f.done)
			return nil, err
		}
		f.byApp = make(map[string]profile.Characterization, len(chars))
		for _, c := range chars {
			f.byApp[c.App] = c
		}
		f.ok = true
		close(f.done)
		return chars, nil
	}
}

// characterizeSet runs the characterization fan-out for one memo key.
// Multithreaded apps occupy one context per thread; thread counts adapt
// to the machine here (one per core under SMT, one per half the cores
// under CMP), which is what keeps reduced-core Scales runnable. The
// per-cell scheduling — every solo and (application, Ruler) co-location
// on one worker pool — lives in profile.CharacterizeJobsContext.
func (l *Lab) characterizeSet(ctx context.Context, m Machine, placement profile.Placement, set []*workload.Spec) ([]profile.Characterization, error) {
	l.charRuns.Add(1)
	jobs := make([]profile.Job, len(set))
	for i, s := range set {
		switch {
		case s.ThreadCount() > 1 && placement == profile.CMP:
			jobs[i] = profile.AppThreads(s, l.Config(m).Cores/2)
		case s.ThreadCount() > 1:
			jobs[i] = profile.AppThreads(s, l.Config(m).Cores)
		default:
			jobs[i] = profile.App(s)
		}
	}
	return l.Profiler(m).CharacterizeJobsContext(ctx, jobs, placement)
}
