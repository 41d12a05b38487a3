package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	clworkload "repro/internal/cluster/workload"
	"repro/internal/isol"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// This file is the warehouse-scale discrete-event core: tens of
// thousands of machines, millions of placement/churn events, seconds of
// wall-clock. It replaces full-fleet scans with incremental
// contention-aware placement: machines live in per-shard occupancy
// buckets keyed by (latency app, resident batch app, instance count), and
// because predicted QoS depends only on that state triple, best-fit
// admission is a scan over O(apps × instances) buckets instead of O(fleet)
// machines, independent of fleet size.
//
// Determinism. The fleet is statically sharded into scheduling cells
// (machine → shard, jobs dealt to shards by the workload generator), and
// each shard is a self-contained sequential simulation: one indexed
// min-heap of pending departures merged two-way with the shard's
// time-sorted exogenous stream, ties broken departures-first, then by
// shard-local sequence numbers. Shards never communicate, so fanning them
// across sched.Map workers is bit-identical at any worker count; the
// per-shard placement logs are merged by (At, Shard, Seq) afterwards.
// internal/simtest pins replay determinism as a 20-seed law.

// DefaultShards is the shard count used when SimConfig.Shards is zero:
// enough cells to keep a machine's worth of workers busy without
// fragmenting small fleets.
const DefaultShards = 16

// MaxShards bounds SimConfig.Shards. Every shard allocates its event
// streams and placement buckets up front, so an absurd count from a flag
// or a trace header would exhaust memory before the first event.
const MaxShards = 1024

// SimConfig parameterises one discrete-event cluster run. The workload
// config carries the fleet size, horizon, seed and application-population
// dimensions; the prediction table carries the QoS surface placements are
// decided (and scored) on.
type SimConfig struct {
	// Workload shapes the exogenous event streams (arrival curves, mix
	// drift, churn) and fixes Machines/Horizon/Seed/Lats/Batches.
	Workload clworkload.Config `json:"workload"`
	// Shards is the number of scheduling cells the fleet is split into
	// (0 = DefaultShards). More shards means more available parallelism
	// and smaller cells; results depend on the shard count but not on the
	// worker count.
	Shards int `json:"shards"`
	// Policy decides admissions: SMiTe places on predicted QoS, Oracle on
	// measured QoS, Random ignores interference and packs by capacity.
	Policy PolicyKind `json:"policy"`
	// Target is the QoS floor in (0, 1] placements must respect.
	Target float64 `json:"target"`
	// ThreadsPerServer and ContextsPerServer set the machine geometry;
	// ContextsPerServer − ThreadsPerServer idle contexts take batch
	// instances, at most Table.MaxInstances of them.
	ThreadsPerServer  int `json:"threads_per_server"`
	ContextsPerServer int `json:"contexts_per_server"`
	// Table is the precomputed QoS surface (BuildPredTable).
	Table *PredTable `json:"table"`
	// SLO carries the per-class tail-latency budgets and queue rates.
	// Required (with a table holding the degradation surface) when
	// Policy is PolicySLO or PolicyClosedLoop; optional otherwise, in
	// which case it only switches violation accounting from the QoS floor
	// to the class budgets so QoS-floor policies can be compared against
	// the SLO gate on identical terms.
	SLO *SLOSimParams `json:"slo,omitempty"`
	// Drift, when set, shifts the measured degradation surface mid-run
	// (closedloop.go). Violation accounting follows the shifted surface
	// for every policy, so static-vs-closed-loop comparisons are
	// apples-to-apples. Schema addition: traces without it replay
	// unchanged (trace format version 1).
	Drift *DriftSpec `json:"drift,omitempty"`
	// MachineGens, when set, makes the fleet heterogeneous: each machine
	// generation brings its own prediction table and geometry, with Table
	// left nil (isolation.go). Schema addition: homogeneous traces replay
	// unchanged.
	MachineGens []MachineGenSpec `json:"machine_gens,omitempty"`
	// Isol carries the isolation ladder PolicyIsolation escalates through;
	// nil picks isol.DefaultSettings. Only meaningful (and only accepted)
	// with PolicyIsolation.
	Isol *IsolSimParams `json:"isolation,omitempty"`
	// Alloc names the thread-to-core allocation policy scoring the
	// admission scan (AllocPolicies); empty is the bestfit default, which
	// reproduces the historical greedy behaviour bit-for-bit.
	Alloc string `json:"alloc,omitempty"`
}

// genTables returns the per-generation prediction tables (len ≥ 1; the
// homogeneous fleet is a single unnamed generation backed by Table).
func (c *SimConfig) genTables() []*PredTable {
	if len(c.MachineGens) > 0 {
		ts := make([]*PredTable, len(c.MachineGens))
		for i, g := range c.MachineGens {
			ts[i] = g.Table
		}
		return ts
	}
	return []*PredTable{c.Table}
}

// withDefaults normalises zero-valued knobs.
func (c SimConfig) withDefaults() SimConfig {
	if c.Shards == 0 {
		c.Shards = DefaultShards
	}
	c.SLO = c.SLO.withDefaults()
	if c.Policy == PolicyIsolation {
		c.Isol = c.Isol.withDefaults()
	}
	return c
}

// Validate rejects configurations RunSim cannot execute.
func (c SimConfig) Validate() error {
	c = c.withDefaults()
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("cluster: sim shards must be in [0,%d], got %d", MaxShards, c.Shards)
	}
	switch c.Policy {
	case PolicySMiTe, PolicyOracle, PolicyRandom, PolicySLO, PolicyClosedLoop, PolicyIsolation:
	default:
		return fmt.Errorf("cluster: unknown policy %d", int(c.Policy))
	}
	if (c.Policy == PolicySLO || c.Policy == PolicyClosedLoop || c.Policy == PolicyIsolation) && c.SLO == nil {
		return fmt.Errorf("cluster: policy %s needs SLO parameters", c.Policy)
	}
	if c.Policy == PolicyIsolation {
		if err := c.Isol.Validate(); err != nil {
			return err
		}
		if c.Drift != nil {
			return fmt.Errorf("cluster: policy %s does not compose with drift injection", c.Policy)
		}
	} else if c.Isol != nil {
		return fmt.Errorf("cluster: isolation parameters need policy %s, got %s", PolicyIsolation, c.Policy)
	}
	if c.Alloc != "" {
		if _, err := AllocPolicyByName(c.Alloc); err != nil {
			return err
		}
		if c.Policy == PolicyRandom {
			return fmt.Errorf("cluster: alloc policy %q has no effect under policy %s", c.Alloc, c.Policy)
		}
	}
	if err := c.Drift.Validate(c.Workload.Batches); err != nil {
		return err
	}
	if c.SLO != nil {
		if err := c.SLO.Validate(); err != nil {
			return err
		}
	}
	if !(c.Target > 0 && c.Target <= 1) {
		return fmt.Errorf("cluster: QoS target %.3f outside (0,1]", c.Target)
	}
	if c.ThreadsPerServer <= 0 || c.ContextsPerServer <= 0 {
		return fmt.Errorf("cluster: server geometry must be positive")
	}
	if c.ThreadsPerServer >= c.ContextsPerServer {
		return fmt.Errorf("cluster: %d threads leave no idle context of %d", c.ThreadsPerServer, c.ContextsPerServer)
	}
	if err := c.validateFleet(); err != nil {
		return err
	}
	return nil
}

// validateFleet checks the prediction table(s) and per-generation geometry
// against the workload and policy — the homogeneous single-table fleet and
// the heterogeneous MachineGens fleet share every per-table rule.
func (c *SimConfig) validateFleet() error {
	checkTable := func(scope string, t *PredTable, threads, contexts int) error {
		wrap := func(err error) error {
			if scope == "" {
				return err
			}
			return fmt.Errorf("cluster: %s: %w", scope, err)
		}
		if err := t.Validate(); err != nil {
			return wrap(err)
		}
		if c.SLO != nil && !t.HasDegradations() {
			return wrap(fmt.Errorf("cluster: SLO-gated run needs a table with the degradation surface (rebuild with BuildPredTable)"))
		}
		if len(t.LatencyApps) != c.Workload.Lats || len(t.BatchApps) != c.Workload.Batches {
			return wrap(fmt.Errorf("cluster: table is %d×%d apps but workload generates %d×%d",
				len(t.LatencyApps), len(t.BatchApps), c.Workload.Lats, c.Workload.Batches))
		}
		if t.MaxInstances > contexts-threads {
			return wrap(fmt.Errorf("cluster: %d instances exceed %d idle contexts",
				t.MaxInstances, contexts-threads))
		}
		return nil
	}
	if len(c.MachineGens) == 0 {
		return checkTable("", c.Table, c.ThreadsPerServer, c.ContextsPerServer)
	}
	if c.Table != nil {
		return fmt.Errorf("cluster: machine generations carry their own tables; leave Table nil")
	}
	if c.Policy == PolicyClosedLoop {
		return fmt.Errorf("cluster: policy %s does not support heterogeneous machine generations yet", c.Policy)
	}
	if c.Drift != nil {
		return fmt.Errorf("cluster: drift injection does not support heterogeneous machine generations yet")
	}
	ref := c.MachineGens[0].Table
	seen := make(map[string]bool, len(c.MachineGens))
	for i, g := range c.MachineGens {
		if g.Name == "" {
			return fmt.Errorf("cluster: machine generation %d has no name", i)
		}
		if seen[g.Name] {
			return fmt.Errorf("cluster: duplicate machine generation %q", g.Name)
		}
		seen[g.Name] = true
		if g.Count <= 0 {
			return fmt.Errorf("cluster: machine generation %q count %d must be positive", g.Name, g.Count)
		}
		threads, contexts := g.geometry(c)
		if threads <= 0 || contexts <= 0 || threads >= contexts {
			return fmt.Errorf("cluster: machine generation %q geometry %d/%d leaves no idle context", g.Name, threads, contexts)
		}
		if err := checkTable(fmt.Sprintf("machine generation %q", g.Name), g.Table, threads, contexts); err != nil {
			return err
		}
		if ref != nil && g.Table != nil {
			if len(g.Table.LatencyApps) != len(ref.LatencyApps) ||
				len(g.Table.BatchApps) != len(ref.BatchApps) ||
				g.Table.MaxInstances != ref.MaxInstances ||
				g.Table.QoS != ref.QoS {
				return fmt.Errorf("cluster: machine generation %q table shape differs from %q (generations must share populations, MaxInstances, and QoS kind)",
					g.Name, c.MachineGens[0].Name)
			}
		}
	}
	return nil
}

// GenerateEvents produces the per-shard exogenous event streams for the
// configured workload — the recordable half of a run.
func GenerateEvents(cfg SimConfig) ([][]clworkload.Event, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shards := make([][]clworkload.Event, cfg.Shards)
	for s := range shards {
		ev, err := clworkload.Generate(cfg.Workload, s, cfg.Shards)
		if err != nil {
			return nil, err
		}
		shards[s] = ev
	}
	return shards, nil
}

// Placement is one scheduler decision in the merged log. Rejections are
// logged too (Machine = −1), so the log is a complete decision record and
// bit-for-bit comparable across replays.
type Placement struct {
	At      float64 `json:"t"`
	Shard   int32   `json:"s"`
	Seq     uint32  `json:"q"` // shard-local decision sequence
	Machine int64   `json:"m"` // global machine id; −1 = rejected
	Lat     int16   `json:"l"` // latency app of the machine; −1 = rejected
	Batch   int16   `json:"b"`
	N       int16   `json:"n"` // resident instances after placement; 0 = rejected
	// Kind types non-admission decisions (PlacementMigrate); empty for
	// ordinary placements and rejections, so pre-closed-loop logs decode
	// and hash identically.
	Kind string `json:"k,omitempty"`
	// From is the machine a migrated instance left (Kind=PlacementMigrate).
	From int64 `json:"f,omitempty"`
}

// PlacementMigrate marks a closed-loop migration decision in the log:
// Machine/Lat/N describe the receiving machine, From the drifted one.
const PlacementMigrate = "migrate"

// SimResult aggregates one discrete-event run.
type SimResult struct {
	Policy PolicyKind
	QoS    QoSKind
	Target float64

	// Events counts every processed event: exogenous arrivals/churn plus
	// endogenous job departures.
	Events int
	// Arrived/Placed/Rejected count batch jobs; Departed jobs that ran to
	// completion; Evicted jobs killed by a machine decommission.
	Arrived, Placed, Rejected, Departed, Evicted int
	// MachinesStart/End/Ups/Downs describe fleet churn.
	MachinesStart, MachinesEnd, MachineUps, MachineDowns int

	// BaselineUtilization is the no-co-location context utilisation;
	// MeanUtilization the machine-time-weighted mean with co-location;
	// PeakUtilization the largest instantaneous shard utilisation.
	BaselineUtilization float64
	MeanUtilization     float64
	PeakUtilization     float64

	// Violations counts placements that actually missed their objective
	// at the resulting occupancy — the measured QoS under the target for
	// QoS-floor runs, the measured Eq. 6 tail over the class budget when
	// SLO parameters are set (the post-drift surface once SimConfig.Drift
	// lands); ViolationFrac normalises by Placed.
	Violations    int
	ViolationFrac float64

	// Closed-loop activity (PolicyClosedLoop only): confirmed drift
	// detections, (lat, batch)-pair re-characterizations, and attempted
	// instance migrations. PolicyIsolation reuses the migration counters
	// for its last-resort moves.
	Detections       int
	Recharacterized  int
	Migrations       int
	MigrationsFailed int

	// Isolation activity (PolicyIsolation only): ladder escalations,
	// violations an engaged operating point absorbed without any
	// migration, the ladder depth, and the machine-time-weighted mean
	// throughput tax the engaged levels cost the fleet.
	Isolations        int
	IsolationResolved int
	IsolationLevels   int
	IsolationTax      float64

	// SLOParams echoes the run's (normalised) SLO parameters, nil for
	// QoS-floor runs; Summary reads its saturation thresholds.
	SLOParams *SLOSimParams

	// Log is the merged placement log, ordered by (At, Shard, Seq).
	Log []Placement
}

// RunSim executes the discrete-event simulation over the given per-shard
// exogenous streams (GenerateEvents for a fresh run, ReadTrace for a
// replay), fanning shards across at most workers sched workers. The
// result — including the merged placement log — is bit-identical for
// every workers value.
func RunSim(ctx context.Context, cfg SimConfig, shards [][]clworkload.Event, workers int) (SimResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return SimResult{}, err
	}
	if len(shards) != cfg.Shards {
		return SimResult{}, fmt.Errorf("cluster: %d event shards for %d sim shards", len(shards), cfg.Shards)
	}
	// The admission/violation surfaces — one per (generation, isolation
	// level) pair — and the post-drift measured surface are pure functions
	// of the tables and parameters; precompute them once and share them
	// read-only across shards.
	world, err := buildSimWorld(&cfg)
	if err != nil {
		return SimResult{}, err
	}
	results := make([]shardResult, cfg.Shards)
	err = sched.Map(ctx, cfg.Shards, workers, func(ctx context.Context, i int) error {
		r, err := runShard(ctx, &cfg, world, i, shards[i])
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return SimResult{}, err
	}
	return mergeShards(cfg, results), nil
}

// shardResult is one cell's contribution before the deterministic merge.
type shardResult struct {
	events                        int
	arrived, placed, rejected     int
	departed, evicted             int
	machinesStart, machinesEnd    int
	ups, downs                    int
	violations                    int
	detections, recharacterized   int
	migrations, migrationsFailed  int
	isolations, isolationResolved int
	busyInt, ctxInt, baseInt      float64 // utilisation integrals
	taxInt                        float64 // throughput-tax integral (PolicyIsolation)
	peak                          float64
	log                           []Placement
}

func mergeShards(cfg SimConfig, rs []shardResult) SimResult {
	out := SimResult{Policy: cfg.Policy, QoS: cfg.genTables()[0].QoS, Target: cfg.Target, SLOParams: cfg.SLO}
	if cfg.Policy == PolicyIsolation {
		out.IsolationLevels = len(cfg.Isol.Levels)
	}
	logLen := 0
	for _, r := range rs {
		out.Events += r.events
		out.Arrived += r.arrived
		out.Placed += r.placed
		out.Rejected += r.rejected
		out.Departed += r.departed
		out.Evicted += r.evicted
		out.MachinesStart += r.machinesStart
		out.MachinesEnd += r.machinesEnd
		out.MachineUps += r.ups
		out.MachineDowns += r.downs
		out.Violations += r.violations
		out.Detections += r.detections
		out.Recharacterized += r.recharacterized
		out.Migrations += r.migrations
		out.MigrationsFailed += r.migrationsFailed
		out.Isolations += r.isolations
		out.IsolationResolved += r.isolationResolved
		if r.peak > out.PeakUtilization {
			out.PeakUtilization = r.peak
		}
		logLen += len(r.log)
	}
	var busy, ctx, base, tax float64
	for _, r := range rs {
		busy += r.busyInt
		ctx += r.ctxInt
		base += r.baseInt
		tax += r.taxInt
	}
	if ctx > 0 {
		out.MeanUtilization = busy / ctx
		out.BaselineUtilization = base / ctx
		out.IsolationTax = tax / ctx
	}
	if out.Placed > 0 {
		out.ViolationFrac = float64(out.Violations) / float64(out.Placed)
	}
	out.Log = make([]Placement, 0, logLen)
	for _, r := range rs {
		out.Log = append(out.Log, r.log...)
	}
	// Each shard log is already (At, Seq)-ordered; the global order is the
	// deterministic (At, Shard, Seq) merge.
	sort.Slice(out.Log, func(i, j int) bool {
		a, b := out.Log[i], out.Log[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}

// simMachine is one server's live state inside a shard.
type simMachine struct {
	lat   int16
	batch int16 // −1 when no batch app is resident
	n     int16
	gen   int16 // machine generation index (0 for homogeneous fleets)
	level int16 // engaged isolation level (0 = off; resets when n hits 0)
	up    bool
	jobs  []int64 // live departure-event handles
}

// shardSim is the per-cell simulation state.
type shardSim struct {
	cfg   *SimConfig
	w     *simWorld   // shared read-only surfaces (tables, gates, drift)
	t     *PredTable  // w.tables[0]: bucket geometry (shapes are shared)
	dw    *driftWorld // non-nil when cfg.Drift is set; read-only
	cl    *closedLoop // non-nil for PolicyClosedLoop; shard-local
	shard int

	machines []simMachine
	upIDs    []int32 // sorted local ids of up machines
	buckets  []*iheap
	events   *iheap          // pending departures, keyed (time, handle)
	owner    map[int64]int32 // departure handle -> local machine id
	handle   int64
	rng      *xrand.Rand // Random-policy draws only

	nLat, nBatch, maxInst int
	nGens, nLevels        int

	// tables and gates alias simWorld for brevity in the hot loop; levels
	// is the isolation ladder (nil unless PolicyIsolation). qfAdmit and
	// qfSlack are the per-generation QoS-floor admission surfaces the
	// SMiTe/Oracle policies scan (q ≥ target, headroom q − target).
	tables  []*PredTable
	gates   [][]*sloGate
	levels  []isol.Setting
	qfAdmit [][]bool
	qfSlack [][]float64

	// Utilisation integrals. taxNow is exactly 0.0 whenever the isolation
	// ladder is off, so the integral never perturbs pre-isolation results.
	busyNow, ctxNow, baseNow int
	taxNow                   float64
	lastT                    float64
	res                      shardResult
}

// bucketIdx flattens machine state (generation, isolation level, lat,
// resident batch or −1, n) to its occupancy bucket. batchState 0 is
// "empty"; 1+b is "running batch b". Homogeneous, non-isolated fleets
// collapse to (gen, level) = (0, 0), reproducing the historical index.
func (s *shardSim) bucketIdx(gen, level, lat, batchState, n int) int {
	return (((gen*s.nLevels+level)*s.nLat+lat)*(s.nBatch+1)+batchState)*(s.maxInst+1) + n
}

func (s *shardSim) stateOf(m *simMachine) int {
	if m.batch < 0 {
		return s.bucketIdx(int(m.gen), int(m.level), int(m.lat), 0, 0)
	}
	return s.bucketIdx(int(m.gen), int(m.level), int(m.lat), 1+int(m.batch), int(m.n))
}

// genOf maps a global machine id to its generation: the id's slot in the
// repeating ΣCounts-long generation pattern, so membership is stable
// across churn and identical in every shard layout.
func (s *shardSim) genOf(global int64) int {
	cum := s.w.genCum
	if len(cum) == 0 {
		return 0
	}
	idx := int(global % int64(cum[len(cum)-1]))
	for g, c := range cum {
		if idx < c {
			return g
		}
	}
	return len(cum) - 1
}

// globalID reconstructs the fleet-wide machine id from a local one.
func (s *shardSim) globalID(local int32) int64 {
	return int64(s.shard) + int64(local)*int64(s.cfg.Shards)
}

// account integrates utilisation up to now.
func (s *shardSim) account(now float64) {
	dt := now - s.lastT
	if dt > 0 && s.ctxNow > 0 {
		s.res.busyInt += float64(s.busyNow) * dt
		s.res.ctxInt += float64(s.ctxNow) * dt
		s.res.baseInt += float64(s.baseNow) * dt
		s.res.taxInt += s.taxNow * dt
		if u := float64(s.busyNow) / float64(s.ctxNow); u > s.res.peak {
			s.res.peak = u
		}
	}
	s.lastT = now
}

// addMachine brings a machine up running latency app lat.
func (s *shardSim) addMachine(lat int) int32 {
	local := int32(len(s.machines))
	gen := s.genOf(s.globalID(local))
	s.machines = append(s.machines, simMachine{lat: int16(lat), batch: -1, gen: int16(gen)})
	m := &s.machines[local]
	m.up = true
	s.upIDs = append(s.upIDs, local) // ids are monotone, so append keeps order
	s.buckets[s.stateOf(m)].Push(0, 0, int64(local))
	s.busyNow += s.w.geoms[gen].threads
	s.baseNow += s.w.geoms[gen].threads
	s.ctxNow += s.w.geoms[gen].contexts
	return local
}

// dropMachine decommissions the up machine with the given rank, cancelling
// its pending departures via the indexed heap.
func (s *shardSim) dropMachine(rank float64) {
	if len(s.upIDs) == 0 {
		return
	}
	i := int(rank * float64(len(s.upIDs)))
	if i >= len(s.upIDs) {
		i = len(s.upIDs) - 1
	}
	local := s.upIDs[i]
	s.upIDs = append(s.upIDs[:i], s.upIDs[i+1:]...)
	m := &s.machines[local]
	s.buckets[s.stateOf(m)].Remove(int64(local))
	for _, h := range m.jobs {
		s.events.Remove(h)
		delete(s.owner, h)
		s.res.evicted++
	}
	geom := s.w.geoms[m.gen]
	s.busyNow -= geom.threads + int(m.n)
	s.baseNow -= geom.threads
	s.ctxNow -= geom.contexts
	s.taxNow -= s.taxOf(m)
	m.up = false
	m.jobs = m.jobs[:0]
	m.batch, m.n, m.level = -1, 0, 0
	s.res.downs++
}

// place puts one instance of batch b on local machine id, scheduling its
// departure.
func (s *shardSim) place(local int32, b int, at, duration float64) {
	m := &s.machines[local]
	s.buckets[s.stateOf(m)].Remove(int64(local))
	oldTax := s.taxOf(m)
	m.batch = int16(b)
	m.n++
	h := s.handle
	s.handle++
	s.events.Push(at+duration, uint64(h), h)
	s.owner[h] = local
	m.jobs = append(m.jobs, h)
	s.busyNow++
	s.res.placed++
	// Violation accounting: against the class tail-latency budget when
	// SLO parameters are set (for every policy, so greedy-vs-SLO studies
	// count violations identically), against the QoS floor otherwise —
	// reading the post-drift measured surface once the drift has landed,
	// again for every policy. PolicyIsolation interposes its enforcement
	// ladder: escalate the machine's operating point first, and only count
	// (and migrate) the violations no level can absorb.
	t := s.tables[m.gen]
	cell := t.Cell(int(m.lat), b, int(m.n))
	drifted := s.dw != nil && at >= s.dw.at
	unresolved := false
	switch {
	case s.nLevels > 1:
		unresolved = s.enforceIsolation(m, cell)
	case s.gates != nil:
		violate := s.gates[m.gen][0].violate
		if drifted {
			violate = s.dw.violate
		}
		if violate[cell] {
			s.res.violations++
		}
	default:
		qos := t.ActualQoS[cell]
		if drifted {
			qos = s.dw.actualQoS[cell]
		}
		if qos < s.cfg.Target {
			s.res.violations++
		}
	}
	s.buckets[s.stateOf(m)].Push(0, 0, int64(local))
	s.taxNow += s.taxOf(m) - oldTax
	s.res.log = append(s.res.log, Placement{
		At: at, Shard: int32(s.shard), Seq: uint32(len(s.res.log)),
		Machine: s.globalID(local), Lat: m.lat, Batch: int16(b), N: m.n,
	})
	if s.cl != nil {
		s.observeClosedLoop(int(m.lat), b, cell, at)
	}
	if unresolved {
		// Migration is the last rung of the enforcement ladder.
		s.migrate(local, s.stateOf(m), b, at)
	}
}

// depart completes the job behind a popped departure event.
func (s *shardSim) depart(h int64) {
	local := s.owner[h]
	delete(s.owner, h)
	m := &s.machines[local]
	for i, jh := range m.jobs {
		if jh == h {
			m.jobs = append(m.jobs[:i], m.jobs[i+1:]...)
			break
		}
	}
	s.buckets[s.stateOf(m)].Remove(int64(local))
	oldTax := s.taxOf(m)
	m.n--
	if m.n == 0 {
		// Draining the last instance also disengages isolation: an empty
		// machine returns to the unpartitioned, unthrottled pool.
		m.batch = -1
		m.level = 0
	}
	s.buckets[s.stateOf(m)].Push(0, 0, int64(local))
	s.taxNow += s.taxOf(m) - oldTax
	s.busyNow--
	s.res.departed++
}

// migrate moves the newest instance of batch b off machine victim (in
// bucket state) to the machine the admission policy picks — the one
// migration move of the closed loop and the isolation ladder. The victim
// sits out the re-admission scan so the instance cannot land straight
// back; the departure event rides along. Tax updates are exact no-ops
// when the isolation ladder is off.
func (s *shardSim) migrate(victim int32, state, b int, at float64) {
	vm := &s.machines[victim]
	s.buckets[state].Remove(int64(victim))
	target := s.admit(b)
	if target < 0 {
		s.buckets[state].Push(0, 0, int64(victim))
		s.res.migrationsFailed++
		return
	}
	oldTax := s.taxOf(vm)
	h := vm.jobs[len(vm.jobs)-1]
	vm.jobs = vm.jobs[:len(vm.jobs)-1]
	vm.n--
	if vm.n == 0 {
		vm.batch = -1
		vm.level = 0
	}
	s.buckets[s.stateOf(vm)].Push(0, 0, int64(victim))
	s.taxNow += s.taxOf(vm) - oldTax

	tm := &s.machines[target]
	s.buckets[s.stateOf(tm)].Remove(int64(target))
	oldTax = s.taxOf(tm)
	tm.batch = int16(b)
	tm.n++
	s.buckets[s.stateOf(tm)].Push(0, 0, int64(target))
	s.taxNow += s.taxOf(tm) - oldTax
	tm.jobs = append(tm.jobs, h)
	s.owner[h] = target

	s.res.migrations++
	s.res.log = append(s.res.log, Placement{
		At: at, Shard: int32(s.shard), Seq: uint32(len(s.res.log)),
		Machine: s.globalID(target), Lat: tm.lat, Batch: int16(b), N: tm.n,
		Kind: PlacementMigrate, From: s.globalID(victim),
	})
}

// admission returns the per-cell admissible/slack surfaces the scan reads
// for (generation, isolation level) candidates. QoS-floor policies pack by
// QoS headroom above the target; SLO-family policies by predicted
// tail-latency slack under the effective budget; the closed loop reads its
// shard-local re-scored working copy.
func (s *shardSim) admission(gen, level int) (admit []bool, slack []float64) {
	switch {
	case s.cfg.Policy == PolicyClosedLoop:
		return s.cl.admit, s.cl.slack
	case s.cfg.Policy == PolicySLO || s.cfg.Policy == PolicyIsolation:
		g := s.gates[gen][level]
		return g.admit, g.slack
	default:
		return s.qfAdmit[gen], s.qfSlack[gen]
	}
}

// admit picks the machine for one instance of batch b, or −1 to reject.
// All non-Random policies scan the occupancy buckets — O(generations ×
// levels × lats × instances) bucket peeks, never a fleet scan — scoring
// admissible candidates with the configured allocation policy (bestfit by
// default: tightest headroom wins) under deterministic tie-breaks (first
// admissible state in bucket-scan order, then lowest machine id). Random
// probes the up-machine ring for spare capacity, ignoring QoS.
func (s *shardSim) admit(b int) int32 {
	if s.cfg.Policy == PolicyRandom {
		if len(s.upIDs) == 0 {
			return -1
		}
		start := s.rng.Intn(len(s.upIDs))
		for k := 0; k < len(s.upIDs); k++ {
			local := s.upIDs[(start+k)%len(s.upIDs)]
			m := &s.machines[local]
			if (m.batch < 0 || int(m.batch) == b) && int(m.n) < s.maxInst {
				return local
			}
		}
		return -1
	}
	alloc := s.w.alloc
	bestState := -1
	bestScore := math.Inf(1)
	for gen := 0; gen < s.nGens; gen++ {
		t := s.tables[gen]
		for level := 0; level < s.nLevels; level++ {
			admit, slack := s.admission(gen, level)
			for lat := 0; lat < s.nLat; lat++ {
				// Empty machines take the first instance (they are always at
				// level 0 — isolation disengages when a machine drains);
				// occupied ones stack more of the same batch kind up to
				// MaxInstances.
				if level == 0 {
					if state := s.bucketIdx(gen, 0, lat, 0, 0); s.buckets[state].Len() > 0 {
						if cell := t.Cell(lat, b, 1); admit[cell] {
							sc := slack[cell]
							if alloc != nil {
								sc = alloc(slack[cell], 1, predDegOf(t, cell))
							}
							if sc < bestScore {
								bestScore = sc
								bestState = state
							}
						}
					}
				}
				for n := 1; n < s.maxInst; n++ {
					state := s.bucketIdx(gen, level, lat, 1+b, n)
					if s.buckets[state].Len() == 0 {
						continue
					}
					if cell := t.Cell(lat, b, n+1); admit[cell] {
						sc := slack[cell]
						if alloc != nil {
							sc = alloc(slack[cell], n+1, predDegOf(t, cell))
						}
						if sc < bestScore {
							bestScore = sc
							bestState = state
						}
					}
				}
			}
		}
	}
	if bestState < 0 {
		return -1
	}
	return int32(s.buckets[bestState].Min().handle)
}

// ctxCheckInterval bounds how stale a cancellation can go unnoticed in
// the per-shard event loop.
const ctxCheckInterval = 1 << 16

func runShard(ctx context.Context, cfg *SimConfig, w *simWorld, shard int, exo []clworkload.Event) (shardResult, error) {
	nLat, nBatch := cfg.Workload.Lats, cfg.Workload.Batches
	s := &shardSim{
		cfg: cfg, w: w, t: w.tables[0], dw: w.dw, shard: shard,
		nLat: nLat, nBatch: nBatch, maxInst: w.tables[0].MaxInstances,
		nGens: len(w.tables), nLevels: 1,
		tables: w.tables, gates: w.gates, levels: w.levels,
		events: newIheap(),
		owner:  make(map[int64]int32),
		rng:    xrand.New(cfg.Workload.Seed ^ 0x51A1 ^ (uint64(shard)+1)*0xBF58476D1CE4E5B9),
	}
	if len(w.levels) > 0 {
		s.nLevels = len(w.levels)
	}
	if cfg.Policy == PolicyClosedLoop {
		s.cl = newClosedLoop(cfg.Table, w.gates[0][0], cfg.SLO)
	}
	if cfg.Policy != PolicySLO && cfg.Policy != PolicyClosedLoop && cfg.Policy != PolicyIsolation && cfg.Policy != PolicyRandom {
		// Precompute the QoS-floor admission surfaces once per generation;
		// admit() then stays pure array lookups.
		s.qfAdmit = make([][]bool, s.nGens)
		s.qfSlack = make([][]float64, s.nGens)
		for gi, t := range s.tables {
			s.qfAdmit[gi], s.qfSlack[gi] = qosFloor(t, cfg.Policy, cfg.Target)
		}
	}
	s.buckets = make([]*iheap, s.nGens*s.nLevels*nLat*(nBatch+1)*(s.maxInst+1))
	for i := range s.buckets {
		s.buckets[i] = newIheap()
	}

	// Initial fleet: machines are dealt to shards round-robin, and their
	// latency apps round-robin over the population, so shard membership is
	// a pure function of the global machine id.
	for g := shard; g < cfg.Workload.Machines; g += cfg.Shards {
		s.addMachine(g % nLat)
	}
	s.res.machinesStart = len(s.upIDs)

	horizon := cfg.Workload.Horizon
	for ci := 0; ; {
		// Two-way deterministic merge: pending departures fire before
		// exogenous events at the same instant (capacity frees first).
		var at float64
		useDeparture := false
		switch {
		case s.events.Len() > 0 && ci < len(exo):
			at = exo[ci].At
			if d := s.events.Min().at; d <= at {
				at, useDeparture = d, true
			}
		case s.events.Len() > 0:
			at, useDeparture = s.events.Min().at, true
		case ci < len(exo):
			at = exo[ci].At
		default:
			at = horizon
		}
		if at >= horizon {
			break
		}
		if s.res.events%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return shardResult{}, err
			}
		}
		s.account(at)
		s.res.events++
		if useDeparture {
			s.depart(s.events.Pop().handle)
			continue
		}
		ev := exo[ci]
		ci++
		switch ev.Kind {
		case clworkload.KindMachineUp:
			s.addMachine(ev.Lat)
			s.res.ups++
		case clworkload.KindMachineDown:
			s.dropMachine(ev.Rank)
		case clworkload.KindJobArrive:
			s.res.arrived++
			if local := s.admit(ev.Batch); local >= 0 {
				s.place(local, ev.Batch, ev.At, ev.Duration)
			} else {
				s.res.rejected++
				s.res.log = append(s.res.log, Placement{
					At: ev.At, Shard: int32(s.shard), Seq: uint32(len(s.res.log)),
					Machine: -1, Lat: -1, Batch: int16(ev.Batch),
				})
			}
		default:
			return shardResult{}, fmt.Errorf("unknown event kind %d at seq %d", ev.Kind, ev.Seq)
		}
	}
	s.account(horizon)
	s.res.machinesEnd = len(s.upIDs)
	return s.res, nil
}
