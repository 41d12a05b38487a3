// Package workload generates the exogenous event streams driving the
// warehouse-scale cluster simulation in internal/cluster: batch-job
// arrivals shaped by temporal rate curves (diurnal modulation, bursty
// windows), per-window request-mix drift over the batch-application
// population, and machine churn (arrivals and decommissions).
//
// Everything is deterministic from a seed. Each shard of the cluster
// draws its stream from an independent seeded xrand generator, and all
// window-level decisions (burst state, mix weights) come from per-window
// generators derived from (seed, shard, window index), so the stream of
// one window never depends on how many events earlier windows produced.
//
// The generated events are exogenous only: job arrivals carry their
// duration, machine decommissions carry a rank selecting the victim among
// the machines alive at processing time, and nothing here depends on
// placement decisions. That split is what makes trace record/replay exact:
// a recorded stream replayed through the simulator reproduces the original
// run's placement log bit for bit (internal/simtest pins this as a law).
package workload

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Kind discriminates exogenous cluster events.
type Kind uint8

const (
	// KindMachineUp adds a machine running latency application Lat.
	KindMachineUp Kind = iota + 1
	// KindMachineDown decommissions the machine selected by Rank among
	// the machines alive when the event is processed.
	KindMachineDown
	// KindJobArrive offers a batch job of application Batch running for
	// Duration to the cluster scheduler.
	KindJobArrive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMachineUp:
		return "machine-up"
	case KindMachineDown:
		return "machine-down"
	case KindJobArrive:
		return "job-arrive"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one exogenous cluster event. Fields not used by a kind stay
// zero; Seq is shard-local and strictly increasing, so (At, Seq) totally
// orders a shard's stream even when two events share a timestamp.
type Event struct {
	At   float64 `json:"t"`
	Seq  uint64  `json:"q"`
	Kind Kind    `json:"k"`
	// Lat is the latency-application index of a new machine (KindMachineUp).
	Lat int `json:"l,omitempty"`
	// Batch is the batch-application index of a job (KindJobArrive).
	Batch int `json:"b,omitempty"`
	// Duration is the job's run time (KindJobArrive).
	Duration float64 `json:"d,omitempty"`
	// Rank in [0, 1) selects the decommission victim (KindMachineDown).
	Rank float64 `json:"r,omitempty"`
}

// Config parameterises one generated cluster workload. Rates are
// fleet-wide; Generate divides them across shards.
type Config struct {
	// Machines is the initial fleet size (also the scale for churn rates).
	Machines int `json:"machines"`
	// Horizon is the simulated time span events are generated over.
	Horizon float64 `json:"horizon"`
	// Lats and Batches are the application population sizes; events carry
	// indices in [0, Lats) and [0, Batches).
	Lats    int `json:"lats"`
	Batches int `json:"batches"`
	// Seed drives every random draw.
	Seed uint64 `json:"seed"`

	// ArrivalRate is the mean fleet-wide batch-job arrival rate (jobs per
	// time unit) before temporal modulation.
	ArrivalRate float64 `json:"arrival_rate"`
	// MeanDuration is the mean exponential job duration.
	MeanDuration float64 `json:"mean_duration"`

	// Diurnal is the relative amplitude in [0, 1) of a sinusoidal rate
	// modulation with period Period: rate(t) scales by
	// 1 + Diurnal·sin(2πt/Period). Zero disables it.
	Diurnal float64 `json:"diurnal,omitempty"`
	// Period is the diurnal period; defaults to Horizon when zero and
	// Diurnal is set.
	Period float64 `json:"period,omitempty"`

	// BurstProb is the probability that a window is bursty, multiplying
	// its arrival rate by BurstFactor. Zero disables bursts.
	BurstProb float64 `json:"burst_prob,omitempty"`
	// BurstFactor is the bursty-window rate multiplier (> 1).
	BurstFactor float64 `json:"burst_factor,omitempty"`

	// Window is the length of the temporal windows burst state and mix
	// drift are re-drawn on. Defaults to Horizon/24 when zero and either
	// bursts or drift are enabled.
	Window float64 `json:"window,omitempty"`
	// Drift is the per-window log-scale random-walk step of the batch-mix
	// weights: each window, every batch application's weight is multiplied
	// by exp(Drift·u) with u uniform in [-1, 1], then the weights are
	// renormalised. Zero keeps the mix uniform forever.
	Drift float64 `json:"drift,omitempty"`

	// Churn is the per-machine rate of churn events: the fleet sees
	// Churn·Machines machine arrivals and as many decommissions per time
	// unit in expectation. Zero freezes the fleet.
	Churn float64 `json:"churn,omitempty"`
}

// Validate rejects configurations Generate cannot honour. Degenerate
// worlds are legal: zero machines and/or a zero arrival rate produce an
// empty (or churn-only) stream, which the simulator and trace codec
// round-trip to an empty placement log. Horizon stays strictly positive
// even then — the window length is derived from it, and a zero horizon
// would poison the per-window rate math with NaNs. Every rate and length
// must be finite: NaN fails every comparison and an infinite horizon or
// rate never lets the generator finish.
func (c Config) Validate() error {
	switch {
	case c.Machines < 0:
		return fmt.Errorf("workload: Machines must be non-negative, got %d", c.Machines)
	case !positive(c.Horizon):
		return fmt.Errorf("workload: Horizon must be positive and finite, got %g", c.Horizon)
	case c.Lats <= 0 || c.Batches <= 0:
		return fmt.Errorf("workload: need positive application counts, got %d lats, %d batches", c.Lats, c.Batches)
	case !nonNegative(c.ArrivalRate):
		return fmt.Errorf("workload: ArrivalRate must be non-negative and finite, got %g", c.ArrivalRate)
	case c.ArrivalRate > 0 && !positive(c.MeanDuration):
		return fmt.Errorf("workload: MeanDuration must be positive and finite with arrivals enabled, got %g", c.MeanDuration)
	case !(c.Diurnal >= 0 && c.Diurnal < 1):
		return fmt.Errorf("workload: Diurnal must be in [0, 1), got %g", c.Diurnal)
	case !nonNegative(c.Period):
		return fmt.Errorf("workload: Period must be non-negative and finite, got %g", c.Period)
	case !(c.BurstProb >= 0 && c.BurstProb <= 1):
		return fmt.Errorf("workload: BurstProb must be in [0, 1], got %g", c.BurstProb)
	case c.BurstProb > 0 && !(c.BurstFactor > 1 && !math.IsInf(c.BurstFactor, 1)):
		return fmt.Errorf("workload: BurstFactor must be finite and exceed 1 with bursts enabled, got %g", c.BurstFactor)
	case !nonNegative(c.Window):
		return fmt.Errorf("workload: Window must be non-negative and finite, got %g", c.Window)
	case !nonNegative(c.Drift):
		return fmt.Errorf("workload: Drift must be non-negative and finite, got %g", c.Drift)
	case !nonNegative(c.Churn):
		return fmt.Errorf("workload: Churn must be non-negative and finite, got %g", c.Churn)
	}
	return nil
}

// positive reports x > 0 and finite; NaN fails.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// nonNegative reports x >= 0 and finite; NaN fails.
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// window returns the effective window length.
func (c Config) window() float64 {
	if c.Window > 0 {
		return c.Window
	}
	return c.Horizon / 24
}

// period returns the effective diurnal period.
func (c Config) period() float64 {
	if c.Period > 0 {
		return c.Period
	}
	return c.Horizon
}

// shardSeed decorrelates the per-shard generators: nearby shards of the
// same seed must not see shifted copies of one stream.
func shardSeed(seed uint64, shard int, salt uint64) uint64 {
	return seed ^ salt ^ (uint64(shard)+1)*0x9E3779B97F4A7C15
}

// windowState is the per-window temporal state: the arrival-rate
// multiplier and the drifted batch-mix CDF.
type windowState struct {
	rate float64   // shard arrival rate within the window
	cdf  []float64 // cumulative batch-mix weights, cdf[len-1] == 1
}

// windowWalk derives window w's state. Burst decisions come from an
// independent per-window generator so they do not depend on event counts;
// the mix weights are a random walk, advanced window by window (callers
// visit windows in order).
type windowWalk struct {
	cfg     Config
	shard   int
	share   float64   // base per-shard rate
	weights []float64 // current mix weights, sum 1
}

func newWindowWalk(cfg Config, shard, shards int) *windowWalk {
	w := &windowWalk{cfg: cfg, shard: shard, share: cfg.ArrivalRate / float64(shards)}
	w.weights = make([]float64, cfg.Batches)
	for i := range w.weights {
		w.weights[i] = 1 / float64(cfg.Batches)
	}
	return w
}

// state computes window w's state and advances the mix walk by one step.
func (ww *windowWalk) state(w int) windowState {
	cfg := ww.cfg
	wr := xrand.New(shardSeed(cfg.Seed, ww.shard, 0xB0A7^uint64(w)*0x94D049BB133111EB))
	if cfg.Drift > 0 {
		total := 0.0
		for i := range ww.weights {
			u := 2*wr.Float64() - 1
			ww.weights[i] *= math.Exp(cfg.Drift * u)
			total += ww.weights[i]
		}
		for i := range ww.weights {
			ww.weights[i] /= total
		}
	}
	st := windowState{cdf: make([]float64, len(ww.weights))}
	sum := 0.0
	for i, v := range ww.weights {
		sum += v
		st.cdf[i] = sum
	}
	st.cdf[len(st.cdf)-1] = 1
	mid := (float64(w) + 0.5) * cfg.window()
	st.rate = ww.share * (1 + cfg.Diurnal*math.Sin(2*math.Pi*mid/cfg.period()))
	if cfg.BurstProb > 0 && wr.Bool(cfg.BurstProb) {
		st.rate *= cfg.BurstFactor
	}
	return st
}

// sampleBatch draws a batch index from the window's mix.
func (st windowState) sampleBatch(r *xrand.Rand) int {
	u := r.Float64()
	for i, c := range st.cdf {
		if u < c {
			return i
		}
	}
	return len(st.cdf) - 1
}

// Generate produces shard's exogenous event stream for the configured
// workload, time-ordered with strictly increasing Seq. The fleet-wide
// arrival and churn rates are split evenly across shards; the same
// (Config, shard, shards) always yields the same stream.
func Generate(cfg Config, shard, shards int) ([]Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 || shard < 0 || shard >= shards {
		return nil, fmt.Errorf("workload: shard %d outside [0, %d)", shard, shards)
	}

	jr := xrand.New(shardSeed(cfg.Seed, shard, 0x10B5)) // job stream
	cr := xrand.New(shardSeed(cfg.Seed, shard, 0xC0DE)) // churn stream
	walk := newWindowWalk(cfg, shard, shards)
	window := cfg.window()
	curWin := 0
	st := walk.state(0)

	churnRate := cfg.Churn * float64(cfg.Machines) / float64(shards)
	inf := math.Inf(1)
	nextJob := jr.Exp(math.Max(st.rate, 1e-300))
	nextUp, nextDown := inf, inf
	if churnRate > 0 {
		nextUp = cr.Exp(churnRate)
		nextDown = cr.Exp(churnRate)
	}

	var out []Event
	var seq uint64
	emit := func(e Event) {
		e.Seq = seq
		seq++
		out = append(out, e)
	}
	for {
		t := math.Min(nextJob, math.Min(nextUp, nextDown))
		if t >= cfg.Horizon {
			break
		}
		switch {
		case t == nextJob:
			// Advance window state up to the arrival's window; the gap to
			// the next arrival is drawn at the new window's rate.
			for w := int(t / window); curWin < w; {
				curWin++
				st = walk.state(curWin)
			}
			emit(Event{At: t, Kind: KindJobArrive,
				Batch:    st.sampleBatch(jr),
				Duration: jr.Exp(1 / cfg.MeanDuration)})
			nextJob = t + jr.Exp(math.Max(st.rate, 1e-300))
		case t == nextUp:
			emit(Event{At: t, Kind: KindMachineUp, Lat: cr.Intn(cfg.Lats)})
			nextUp = t + cr.Exp(churnRate)
		default:
			emit(Event{At: t, Kind: KindMachineDown, Rank: cr.Float64()})
			nextDown = t + cr.Exp(churnRate)
		}
	}
	return out, nil
}
