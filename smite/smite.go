// Package smite is the public API of the SMiTe reproduction: precise QoS
// prediction for SMT co-location, as described in "SMiTe: Precise QoS
// Prediction on Real-System SMT Processors to Improve Utilization in
// Warehouse Scale Computers" (MICRO 2014).
//
// The package wraps the methodology end to end:
//
//  1. Characterize applications with the Ruler stressor suite, obtaining a
//     decoupled sensitivity/contentiousness vector per sharing dimension
//     (FP_MUL, FP_ADD, FP_SHF, INT_ADD, L1, L2, L3).
//  2. Train the Equation 3 regression model from characterizations plus a
//     set of measured co-location degradations.
//  3. Predict the degradation of arbitrary co-locations — and, through the
//     M/M/1 queueing extension, percentile (tail) latency — without ever
//     co-locating the applications for real.
//
// The "real system" underneath is a deterministic cycle-approximate SMT
// multicore simulator (see DESIGN.md for the substitution rationale); the
// methodology layers are exactly the paper's.
//
// A minimal session:
//
//	sys, _ := smite.New(smite.IvyBridge.Config())
//	a, _ := smite.WorkloadByName("444.namd")
//	b, _ := smite.WorkloadByName("429.mcf")
//	chA, _ := sys.Characterize(a, smite.SMT)
//	chB, _ := sys.Characterize(b, smite.SMT)
//	m, _ := sys.TrainFromSets(trainApps, smite.SMT)
//	deg := m.PredictPair(chA, chB) // namd's degradation next to mcf
//
// Every measurement method has a ...Context form taking a context.Context
// that cancels in-flight simulation, and batch methods fan their
// independent simulation cells across a worker pool sized by
// WithParallelism — results are bit-identical at any worker count:
//
//	sys, _ := smite.New(smite.IvyBridge.Config(),
//	    smite.WithOptions(smite.FastOptions()),
//	    smite.WithParallelism(8),
//	    smite.WithProgress(func(done, total int) { fmt.Printf("\r%d/%d", done, total) }))
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	chars, err := sys.CharacterizeAllContext(ctx, apps, smite.SMT)
package smite

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/queueing"
	"repro/internal/rulers"
	"repro/internal/sim/isa"
	"repro/internal/surrogate"
	"repro/internal/workload"
)

// Re-exported building blocks. These are aliases so that values flow
// freely between the public API and the internal packages.
type (
	// Spec describes an application model (instruction mix, working sets,
	// branch behaviour). Use the registry helpers or build your own.
	Spec = workload.Spec
	// Mix is a Spec's dynamic micro-op mix.
	Mix = workload.Mix
	// Characterization is an application's decoupled Sen/Con profile.
	Characterization = profile.Characterization
	// PairMeasurement is a measured co-location ground truth.
	PairMeasurement = profile.PairMeasurement
	// Options control measurement windows and reproducibility.
	Options = profile.Options
	// Placement selects SMT (same core) or CMP (across cores) sharing.
	Placement = profile.Placement
	// Dimension identifies one of the seven sharing dimensions.
	Dimension = rulers.Dimension
	// Ruler is one stressor of the measurement suite.
	Ruler = rulers.Ruler
	// MachineConfig is a full microarchitecture description.
	MachineConfig = isa.Config
	// MM1 is the FCFS queueing model for tail-latency prediction.
	MM1 = queueing.MM1
	// Surrogate is a fitted surrogate model set: closed-form curves that
	// answer characterization and degradation queries in microseconds,
	// each answer carrying an engine-backed error bound (see System.Fit).
	Surrogate = surrogate.Set
	// SurrogateModel is one application's fitted curves within a Surrogate.
	SurrogateModel = surrogate.Model
	// SurrogatePrediction is a surrogate degradation answer plus its bound.
	SurrogatePrediction = surrogate.Prediction
	// FitOptions parameterize surrogate fitting (training grid, ridge).
	FitOptions = surrogate.FitOptions
	// ProfileStore is the content-addressed on-disk store surrogate fits
	// warm-start from (see OpenProfileStore).
	ProfileStore = profstore.Store
	// FitStats reports how a warm-started fit was served (store hits vs
	// engine re-fits).
	FitStats = surrogate.StoreStats
)

// AccessPattern selects how a Spec generates data addresses.
type AccessPattern = workload.AccessPattern

// Access patterns.
const (
	// PatternRandom draws uniformly random addresses from the footprint.
	PatternRandom = workload.PatternRandom
	// PatternStride walks the footprint with a fixed stride.
	PatternStride = workload.PatternStride
	// PatternMixed mixes random and strided access per RandomFrac.
	PatternMixed = workload.PatternMixed
)

// Placements.
const (
	// SMT places co-runners on sibling hardware contexts.
	SMT = profile.SMT
	// CMP places co-runners on separate cores.
	CMP = profile.CMP
)

// Sharing dimensions.
const (
	DimFPMul  = rulers.DimFPMul
	DimFPAdd  = rulers.DimFPAdd
	DimFPShf  = rulers.DimFPShf
	DimIntAdd = rulers.DimIntAdd
	DimL1     = rulers.DimL1
	DimL2     = rulers.DimL2
	DimL3     = rulers.DimL3
	DimMemBW  = rulers.DimMemBW
	// NumDimensions is the sharing-dimension count.
	NumDimensions = rulers.NumDimensions
)

// Machine selects a stock microarchitecture (Table I of the paper).
type Machine int

const (
	// IvyBridge models the Intel i7-3770 (4 cores, 8 contexts).
	IvyBridge Machine = iota
	// SandyBridgeEN models the Intel Xeon E5-2420 (6 cores, 12 contexts).
	SandyBridgeEN
)

// Config returns the machine's full configuration for inspection or
// customisation (pass a modified copy to New).
func (m Machine) Config() MachineConfig {
	if m == SandyBridgeEN {
		return isa.SandyBridgeEN()
	}
	return isa.IvyBridge()
}

// DefaultOptions returns full-scale measurement windows; FastOptions
// returns reduced windows for quick experimentation.
func DefaultOptions() Options { return profile.DefaultOptions() }

// FastOptions returns reduced measurement windows.
func FastOptions() Options { return profile.FastOptions() }

// WorkloadByName finds a stock application model ("429.mcf",
// "web-search", ...).
func WorkloadByName(name string) (*Spec, error) { return workload.ByName(name) }

// SPECWorkloads returns the 29 SPEC CPU2006 models; CloudWorkloads the four
// CloudSuite latency-sensitive models.
func SPECWorkloads() []*Spec { return workload.SPECCPU2006() }

// CloudWorkloads returns the CloudSuite application models.
func CloudWorkloads() []*Spec { return workload.CloudSuiteApps() }

// TrainTestSplit returns the paper's even/odd SPEC split.
func TrainTestSplit() (train, test []*Spec) { return workload.EvenSPEC(), workload.OddSPEC() }

// StandardRulers returns the seven-Ruler suite sized to a machine.
func StandardRulers(cfg MachineConfig) []*Ruler { return rulers.StandardSet(cfg) }

// System is the characterization and measurement facade: one simulated
// machine plus memoised solo runs. It is safe for concurrent use.
type System struct {
	prof *profile.Profiler
	sur  *Surrogate
}

// sysOptions aggregates everything New configures: the measurement
// options plus construction-time extras that live outside profile.Options
// (the attached surrogate tier).
type sysOptions struct {
	opts Options
	sur  *Surrogate
}

// Option configures a System at construction (see New).
type Option func(*sysOptions)

// WithOptions replaces the System's measurement options wholesale. Apply
// it before the targeted options (WithCheck, WithParallelism, ...), which
// modify whatever base it established.
func WithOptions(o Options) Option {
	return func(dst *sysOptions) { dst.opts = o }
}

// WithCheck attaches the runtime invariant checker to every simulation the
// System runs, validating the engine's conservation laws every interval
// cycles (0 = engine default). Costs a few percent of simulation time.
func WithCheck(interval uint64) Option {
	return func(dst *sysOptions) {
		dst.opts.Check = true
		dst.opts.CheckInterval = interval
	}
}

// WithParallelism bounds the worker pool that batch operations
// (CharacterizeAll, MeasurePairs, TrainFromSets) fan their independent
// simulation cells across (0 = GOMAXPROCS). Results are bit-identical at
// any value; this is purely a throughput/footprint knob.
func WithParallelism(n int) Option {
	return func(dst *sysOptions) { dst.opts.Parallelism = n }
}

// WithProgress installs a progress callback that fires for every
// characterization (a single application included) and every pair batch:
// done counts completed simulation cells of the current call, total the
// call's cell count. It may be invoked concurrently from worker
// goroutines.
func WithProgress(fn func(done, total int)) Option {
	return func(dst *sysOptions) { dst.opts.Progress = fn }
}

// WithSurrogate attaches a fitted surrogate set (System.Fit, LoadSurrogate)
// to the System, so surrogate-eligible queries can be answered in
// microseconds with an error bound instead of simulating. The engine path
// stays authoritative — consumers such as qosd fall back to it whenever an
// answer's bound exceeds their accuracy budget.
func WithSurrogate(set *Surrogate) Option {
	return func(dst *sysOptions) { dst.sur = set }
}

// New builds a System for a machine configuration (use Machine.Config for
// the two stock Table I machines). With no options it measures with
// DefaultOptions; functional options adjust from there:
//
//	sys, err := smite.New(smite.SandyBridgeEN.Config(),
//	    smite.WithOptions(smite.FastOptions()),
//	    smite.WithParallelism(8))
func New(cfg MachineConfig, opts ...Option) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	so := sysOptions{opts: DefaultOptions()}
	for _, opt := range opts {
		opt(&so)
	}
	return &System{prof: profile.NewProfiler(cfg, so.opts), sur: so.sur}, nil
}

// Machine returns the system's configuration.
func (s *System) Machine() MachineConfig { return s.prof.Config() }

// Surrogate returns the attached surrogate set, or nil when the System
// was built without one (WithSurrogate).
func (s *System) Surrogate() *Surrogate { return s.sur }

// Fit fits a surrogate set for the applications on this System's machine
// and measurement options: each application's (dimension, intensity) grid
// is sampled through the engine and closed-form curves are fitted per
// resource, recording max/mean absolute error bounds (see the Surrogate
// type). The zero FitOptions uses the standard training grid.
func (s *System) Fit(ctx context.Context, apps []*Spec, placement Placement, fo FitOptions) (*Surrogate, error) {
	return surrogate.Fit(ctx, s.prof, apps, placement, fo)
}

// FitWithStore is Fit with a warm-start against a content-addressed
// profile store: models already on disk under their content address load
// instead of re-simulating, and fresh fits are written back. Corrupt or
// version-skewed entries re-fit and heal.
func (s *System) FitWithStore(ctx context.Context, store *ProfileStore, apps []*Spec, placement Placement, fo FitOptions) (*Surrogate, FitStats, error) {
	return surrogate.FitWithStore(ctx, store, s.prof, apps, placement, fo)
}

// TrainSurrogate measures engine ground-truth degradations for every
// distinct pair among apps and embeds the trained Equation 3 model in the
// set, enabling Surrogate.Predict. Needs at least 4 applications.
func (s *System) TrainSurrogate(ctx context.Context, set *Surrogate, apps []*Spec) error {
	return set.TrainEq3(ctx, s.prof, apps)
}

// OpenProfileStore opens (creating if needed) a content-addressed on-disk
// profile store rooted at dir, for warm-starting fits across processes.
func OpenProfileStore(dir string) (*ProfileStore, error) { return profstore.Open(dir) }

// SaveSurrogate writes a fitted set to path as versioned JSON (atomic
// write); LoadSurrogate reads it back, rejecting version or dimension
// skew with typed errors.
func SaveSurrogate(path string, set *Surrogate) error { return surrogate.WriteSetFile(path, set) }

// LoadSurrogate reads a set saved by SaveSurrogate.
func LoadSurrogate(path string) (*Surrogate, error) { return surrogate.ReadSetFile(path) }

// Characterize measures an application's sensitivity and contentiousness
// along every sharing dimension by co-locating it with each Ruler.
func (s *System) Characterize(spec *Spec, placement Placement) (Characterization, error) {
	return s.CharacterizeContext(context.Background(), spec, placement)
}

// CharacterizeContext is Characterize with cooperative cancellation: the
// simulation aborts mid-window when ctx is cancelled.
func (s *System) CharacterizeContext(ctx context.Context, spec *Spec, placement Placement) (Characterization, error) {
	return s.prof.CharacterizeContext(ctx, spec, placement)
}

// CharacterizeAll characterizes a batch of applications concurrently.
func (s *System) CharacterizeAll(specs []*Spec, placement Placement) ([]Characterization, error) {
	return s.CharacterizeAllContext(context.Background(), specs, placement)
}

// CharacterizeAllContext is CharacterizeAll with cooperative cancellation.
// The batch's independent simulation cells fan across the WithParallelism
// worker pool with index-addressed reduction, so results are bit-identical
// to the sequential path at any worker count.
func (s *System) CharacterizeAllContext(ctx context.Context, specs []*Spec, placement Placement) ([]Characterization, error) {
	return s.prof.CharacterizeAllContext(ctx, specs, placement)
}

// MeasurePair measures the mutual degradation of two applications — the
// ground truth used for model training and validation.
func (s *System) MeasurePair(a, b *Spec, placement Placement) (PairMeasurement, error) {
	return s.MeasurePairContext(context.Background(), a, b, placement)
}

// MeasurePairContext is MeasurePair with cooperative cancellation.
func (s *System) MeasurePairContext(ctx context.Context, a, b *Spec, placement Placement) (PairMeasurement, error) {
	return s.prof.MeasurePairContext(ctx, a, b, placement)
}

// MeasurePairs measures all distinct pairs between two sets.
func (s *System) MeasurePairs(as, bs []*Spec, placement Placement) ([]PairMeasurement, error) {
	return s.MeasurePairsContext(context.Background(), as, bs, placement)
}

// MeasurePairsContext is MeasurePairs with cooperative cancellation and
// worker-pool fan-out (see CharacterizeAllContext).
func (s *System) MeasurePairsContext(ctx context.Context, as, bs []*Spec, placement Placement) ([]PairMeasurement, error) {
	return s.prof.MeasurePairsContext(ctx, as, bs, placement)
}

// SoloIPC returns an application's solo IPC (memoised).
func (s *System) SoloIPC(spec *Spec) (float64, error) {
	return s.SoloIPCContext(context.Background(), spec)
}

// SoloIPCContext is SoloIPC with cooperative cancellation.
func (s *System) SoloIPCContext(ctx context.Context, spec *Spec) (float64, error) {
	r, err := s.prof.SoloRunContext(ctx, profile.App(spec))
	if err != nil {
		return 0, err
	}
	return r.AppIPC, nil
}

// Model is the trained Equation 3 predictor.
type Model struct {
	inner model.Smite
}

// NewModel builds a Model from explicit Equation 3 coefficients — the
// programmatic counterpart of LoadModel for callers that already hold a
// trained model in memory (e.g. handing an experiment-trained model to a
// qosd registry without a round-trip through JSON).
func NewModel(coef [NumDimensions]float64, intercept float64) Model {
	return Model{inner: model.Smite{Coef: coef, Intercept: intercept}}
}

// Coefficients returns the per-dimension weights and the intercept c0.
func (m Model) Coefficients() ([NumDimensions]float64, float64) {
	return m.inner.Coef, m.inner.Intercept
}

// PredictPair predicts the victim's degradation when co-located with the
// aggressor, from their characterizations alone.
func (m Model) PredictPair(victim, aggressor Characterization) float64 {
	return m.inner.Predict(model.PairObs{SenA: victim.Sen, ConB: aggressor.Con})
}

// PredictPartial predicts a partial-occupancy co-location in which only
// `instances` of the victim's `threads` sibling contexts receive an
// aggressor instance. The victim characterization should be the
// partial-occupancy profile Sen(n) (see Profiler.CharacterizeJobRulersContext);
// the intercept is scaled by the occupied fraction so it vanishes at
// n = 0. This is the per-candidate formula of the CloudSuite and
// scale-out studies, and the one the qosd daemon serves.
func (m Model) PredictPartial(victim, aggressor Characterization, instances, threads int) float64 {
	return m.inner.PredictPartial(model.PairObs{SenA: victim.Sen, ConB: aggressor.Con}, instances, threads)
}

// PredictSurrogate evaluates this model on the surrogate feature vectors
// of the named pair, returning the prediction together with its
// propagated error bound. Use when the Equation 3 model was trained
// elsewhere (e.g. a qosd registry) rather than embedded in the set.
func (m Model) PredictSurrogate(set *Surrogate, victim, aggressor string) (SurrogatePrediction, error) {
	return set.PredictWith(m.inner, victim, aggressor)
}

// PredictScaled predicts a multithreaded victim's aggregate degradation
// when only `instances` of its `threads` hardware contexts receive an
// aggressor instance (the occupancy scaling used in the CloudSuite and
// scale-out studies).
func (m Model) PredictScaled(victim, aggressor Characterization, instances, threads int) float64 {
	if threads <= 0 {
		return 0
	}
	f := float64(instances) / float64(threads)
	if f > 1 {
		f = 1
	}
	return f * m.PredictPair(victim, aggressor)
}

// Train fits the model from characterizations and measured pairs
// (non-negative least squares on the Equation 3 features).
func Train(chars []Characterization, pairs []PairMeasurement) (Model, error) {
	obs, err := model.BuildObservations(chars, pairs)
	if err != nil {
		return Model{}, err
	}
	inner, err := model.TrainSmiteNNLS(obs)
	if err != nil {
		return Model{}, err
	}
	return Model{inner: inner}, nil
}

// TrainFromSets characterizes the given applications, measures all their
// pairwise co-locations and trains a model — the one-call training path.
func (s *System) TrainFromSets(apps []*Spec, placement Placement) (Model, []Characterization, error) {
	return s.TrainFromSetsContext(context.Background(), apps, placement)
}

// TrainFromSetsContext is TrainFromSets with cooperative cancellation and
// worker-pool fan-out of both the characterization and pair-measurement
// stages.
func (s *System) TrainFromSetsContext(ctx context.Context, apps []*Spec, placement Placement) (Model, []Characterization, error) {
	chars, err := s.CharacterizeAllContext(ctx, apps, placement)
	if err != nil {
		return Model{}, nil, err
	}
	pairs, err := s.MeasurePairsContext(ctx, apps, apps, placement)
	if err != nil {
		return Model{}, nil, err
	}
	m, err := Train(chars, pairs)
	if err != nil {
		return Model{}, nil, err
	}
	return m, chars, nil
}

// PredictTailLatency applies the queueing extension (Equation 6): the
// percentile latency of a service with per-thread service rate mu and
// offered load lambda under a predicted degradation.
func PredictTailLatency(percentile, mu, lambda, degradation float64) (float64, error) {
	if percentile <= 0 || percentile >= 1 {
		return 0, fmt.Errorf("smite: percentile %.3f outside (0,1)", percentile)
	}
	t := queueing.DegradedPercentile(percentile, mu, lambda, degradation)
	return t, nil
}

// SafeColocation reports whether co-locating aggressor next to victim keeps
// the victim's QoS (defined as retained average performance) within target,
// according to the model — the admission check a cluster scheduler runs.
func (m Model) SafeColocation(victim, aggressor Characterization, qosTarget float64) bool {
	return 1-m.PredictPair(victim, aggressor) >= qosTarget
}
