package cluster

import (
	"fmt"

	"repro/internal/isol"
)

// This file is the cluster half of the hardware QoS-enforcement subsystem
// (DESIGN.md §15): heterogeneous machine generations with per-generation
// QoS surfaces, the discrete isolation ladder PolicyIsolation actuates
// before migrating a violating co-location, and the pluggable
// thread-to-core allocation policies the admission scan scores with.

// MachineGenSpec describes one machine generation of a heterogeneous
// fleet: a name, its share of the machine population, its geometry, and
// its own prediction table — degradation surfaces differ across
// generations, so a co-location that violates on one part may be fine on
// another. Every generation's table must cover the same application
// populations with the same MaxInstances (same workload, different
// hardware).
type MachineGenSpec struct {
	// Name labels the generation (conventionally an isa.MachineGens name:
	// snb, ivb, power7, smt4, biglittle).
	Name string `json:"name"`
	// Count is the generation's share of the fleet: machine with global id
	// g belongs to the generation owning slot g mod ΣCounts, so membership
	// is a pure function of the id and survives churn deterministically.
	Count int `json:"count"`
	// Threads and Contexts override the fleet-wide server geometry for
	// this generation; zero inherits SimConfig.ThreadsPerServer /
	// ContextsPerServer.
	Threads  int `json:"threads,omitempty"`
	Contexts int `json:"contexts,omitempty"`
	// Table is the generation's QoS surface (BuildPredTable against this
	// generation's machine model).
	Table *PredTable `json:"table"`
}

// geometry resolves the generation's server geometry against the
// fleet-wide defaults.
func (g MachineGenSpec) geometry(c *SimConfig) (threads, contexts int) {
	threads, contexts = c.ThreadsPerServer, c.ContextsPerServer
	if g.Threads != 0 {
		threads = g.Threads
	}
	if g.Contexts != 0 {
		contexts = g.Contexts
	}
	return threads, contexts
}

// IsolSimParams parameterises PolicyIsolation: the discrete ladder of
// isolation operating points a machine can be escalated through. Nil
// Levels picks isol.DefaultSettings.
type IsolSimParams struct {
	Levels []isol.Setting `json:"levels,omitempty"`
}

func (p *IsolSimParams) withDefaults() *IsolSimParams {
	q := IsolSimParams{}
	if p != nil {
		q = *p
	}
	if q.Levels == nil {
		q.Levels = isol.DefaultSettings()
	}
	return &q
}

// Validate rejects ladders the policy cannot actuate.
func (p *IsolSimParams) Validate() error {
	if p == nil {
		return fmt.Errorf("cluster: isolation policy needs isolation parameters")
	}
	return isol.ValidateSettings(p.Levels)
}

// AllocPolicy is one pluggable thread-to-core allocation policy: a scoring
// function over the candidate (machine-state, batch) cells the admission
// scan enumerates. Lower score wins; ties keep the earliest candidate in
// the deterministic bucket-scan order (generation, level, latency app,
// occupancy), then the lowest machine id — so every policy is exactly as
// reproducible as the default. The family mirrors the SMT-aware allocation
// policies studied for real schedulers (PAPERS.md): greedy tightest-fit
// co-location, naive first-fit, load spreading, and contention-aware
// minimum-degradation variants.
type AllocPolicy struct {
	Name        string
	Description string
	// Score ranks an admissible candidate. slack is the admission
	// headroom (QoS above target, or tail-latency slack under the
	// effective budget), n the instance count after placement, predDeg
	// the predicted victim degradation at that occupancy.
	Score func(slack float64, n int, predDeg float64) float64
}

// AllocPolicies lists the built-in allocation policies in a stable order.
// bestfit is the default and reproduces the historical greedy behaviour
// bit-for-bit.
func AllocPolicies() []AllocPolicy {
	return []AllocPolicy{
		{
			Name:        "bestfit",
			Description: "tightest admissible fit: pack the machine with the least headroom (greedy co-location, the default)",
			Score:       func(slack float64, n int, predDeg float64) float64 { return slack },
		},
		{
			Name:        "firstfit",
			Description: "first admissible machine in deterministic scan order",
			Score:       func(slack float64, n int, predDeg float64) float64 { return 0 },
		},
		{
			Name:        "spread",
			Description: "widest headroom first: spread instances across the fleet",
			Score:       func(slack float64, n int, predDeg float64) float64 { return -slack },
		},
		{
			Name:        "minload",
			Description: "fewest resident instances first: balance occupancy",
			Score:       func(slack float64, n int, predDeg float64) float64 { return float64(n) },
		},
		{
			Name:        "mindeg",
			Description: "smallest predicted victim degradation first: contention-aware",
			Score:       func(slack float64, n int, predDeg float64) float64 { return predDeg },
		},
	}
}

// AllocPolicyByName resolves an allocation policy; the empty name is the
// bestfit default.
func AllocPolicyByName(name string) (AllocPolicy, error) {
	if name == "" {
		name = "bestfit"
	}
	all := AllocPolicies()
	for _, p := range all {
		if p.Name == name {
			return p, nil
		}
	}
	names := ""
	for i, p := range all {
		if i > 0 {
			names += ", "
		}
		names += p.Name
	}
	return AllocPolicy{}, fmt.Errorf("cluster: unknown alloc policy %q (have %s)", name, names)
}

// buildSLOGateScaled is buildSLOGate with the isolation level's DegScale
// folded in: both the predicted and measured degradations shrink by the
// level's shielding factor, so each (generation, level) pair gets its own
// admission/violation surface and the event loop stays pure array lookups.
func buildSLOGateScaled(t *PredTable, p *SLOSimParams, scale float64) *sloGate {
	if scale == 1 {
		return buildSLOGate(t, p)
	}
	scaled := *t
	scaled.PredDeg = scaleSlice(t.PredDeg, scale)
	scaled.ActualDeg = scaleSlice(t.ActualDeg, scale)
	scaled.PredBound = scaleSlice(t.PredBound, scale)
	return buildSLOGate(&scaled, p)
}

func scaleSlice(xs []float64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * scale
	}
	return out
}

// taxOf is the machine's contribution to the fleet throughput-tax
// integral: every resident instance forfeits the engaged level's
// ThroughputTax fraction of its throughput. Exactly zero whenever the
// isolation ladder is off, so the accounting never perturbs
// pre-isolation integrals.
func (s *shardSim) taxOf(m *simMachine) float64 {
	if s.nLevels <= 1 || m.level == 0 {
		return 0
	}
	return float64(m.n) * s.levels[m.level].ThroughputTax
}

// enforceIsolation runs PolicyIsolation's escalate-then-migrate ladder for
// the placement that just landed on m: if the machine's current operating
// point leaves the co-location violating its class budget, escalate to the
// weakest level that clears it (an isolation actuation, not a violation);
// only when no level clears does the violation count — the caller then
// migrates the instance away as the last resort. Returns whether the
// violation survived every level.
func (s *shardSim) enforceIsolation(m *simMachine, cell int) (unresolved bool) {
	gates := s.gates[m.gen]
	baseViolation := gates[0].violate[cell]
	if gates[m.level].violate[cell] {
		for l := int(m.level) + 1; l < s.nLevels; l++ {
			if !gates[l].violate[cell] {
				m.level = int16(l)
				s.res.isolations++
				break
			}
		}
	}
	if gates[m.level].violate[cell] {
		s.res.violations++
		return true
	}
	if baseViolation {
		// The unisolated placement would have violated; the engaged level
		// absorbed it without moving anything.
		s.res.isolationResolved++
	}
	return false
}

// simWorld is the read-only per-run state RunSim precomputes once and
// shares across shards: per-generation tables and geometry, the
// per-(generation, level) admission gates, the isolation ladder, the
// drift surface and the allocation scorer.
type simWorld struct {
	tables []*PredTable
	gates  [][]*sloGate // [gen][level]; nil without SLO parameters
	geoms  []genGeom    // per-generation server geometry, len ≥ 1
	genCum []int        // cumulative generation counts; nil when homogeneous
	levels []isol.Setting
	dw     *driftWorld
	alloc  func(slack float64, n int, predDeg float64) float64 // nil = bestfit fast path
}

// genGeom is one generation's server geometry.
type genGeom struct {
	threads, contexts int
}

// buildSimWorld assembles the shared read-only surfaces for a validated,
// normalised config.
func buildSimWorld(cfg *SimConfig) (*simWorld, error) {
	w := &simWorld{tables: cfg.genTables()}
	if len(cfg.MachineGens) > 0 {
		w.geoms = make([]genGeom, len(cfg.MachineGens))
		w.genCum = make([]int, len(cfg.MachineGens))
		total := 0
		for i, g := range cfg.MachineGens {
			thr, ctxs := g.geometry(cfg)
			w.geoms[i] = genGeom{threads: thr, contexts: ctxs}
			total += g.Count
			w.genCum[i] = total
		}
	} else {
		w.geoms = []genGeom{{threads: cfg.ThreadsPerServer, contexts: cfg.ContextsPerServer}}
	}
	if cfg.Policy == PolicyIsolation {
		w.levels = cfg.Isol.Levels
	}
	if cfg.SLO != nil {
		nLevels := 1
		if len(w.levels) > 0 {
			nLevels = len(w.levels)
		}
		w.gates = make([][]*sloGate, len(w.tables))
		for gi, t := range w.tables {
			w.gates[gi] = make([]*sloGate, nLevels)
			for li := 0; li < nLevels; li++ {
				scale := 1.0
				if len(w.levels) > 0 {
					scale = w.levels[li].DegScale
				}
				w.gates[gi][li] = buildSLOGateScaled(t, cfg.SLO, scale)
			}
		}
	}
	if cfg.Drift != nil {
		w.dw = buildDriftWorld(cfg.Table, cfg.SLO, cfg.Drift)
	}
	if cfg.Alloc != "" && cfg.Alloc != "bestfit" {
		p, err := AllocPolicyByName(cfg.Alloc)
		if err != nil {
			return nil, err
		}
		w.alloc = p.Score
	}
	return w, nil
}

// predDegOf reads the predicted victim degradation backing a cell for
// contention-aware allocation scoring, falling back to the QoS complement
// on legacy tables without a degradation surface.
func predDegOf(t *PredTable, cell int) float64 {
	if len(t.PredDeg) > 0 {
		return t.PredDeg[cell]
	}
	return 1 - t.PredQoS[cell]
}
