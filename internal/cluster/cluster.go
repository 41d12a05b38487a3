// Package cluster implements the paper's scale-out studies (Sections IV-C
// and IV-D): a warehouse-scale cluster whose servers each run a half-loaded
// latency-sensitive application (one thread per core, the sibling SMT
// contexts idle in the baseline), and a cluster scheduler that decides how
// many batch-application instances may be co-located on each server's idle
// contexts without violating the latency application's QoS target.
//
// Three policies are compared, as in the paper: SMiTe (predicted
// degradations steer admission), Oracle (measured degradations steer
// admission) and Random (interference-oblivious placement matched to
// SMiTe's utilisation gain, to expose the QoS violations prediction
// avoids).
package cluster

import (
	"fmt"

	"repro/internal/xrand"
)

// Table is the measured co-location degradation table a study's QoS
// surface is built from: the predicted and measured degradation of each
// latency application co-located with 1..MaxInstances instances of each
// batch application, stored densely in PredTable.Cell order.
type Table struct {
	LatencyApps  []string
	BatchApps    []string
	MaxInstances int
	// Predicted and Actual are indexed by Cell(lat, batch, n).
	Predicted []float64
	Actual    []float64
}

// NewTable builds a zeroed table with every cell present.
func NewTable(latencyApps, batchApps []string, maxInstances int) *Table {
	cells := len(latencyApps) * len(batchApps) * maxInstances
	return &Table{
		LatencyApps:  append([]string(nil), latencyApps...),
		BatchApps:    append([]string(nil), batchApps...),
		MaxInstances: maxInstances,
		Predicted:    make([]float64, cells),
		Actual:       make([]float64, cells),
	}
}

// Cell flattens (lat index, batch index, instances 1..MaxInstances) into
// the table's storage index, the same index PredTable.Cell gives.
func (t *Table) Cell(lat, batch, n int) int {
	return (lat*len(t.BatchApps)+batch)*t.MaxInstances + n - 1
}

// validate rejects a table missing cells.
func (t *Table) validate() error {
	want := len(t.LatencyApps) * len(t.BatchApps) * t.MaxInstances
	if len(t.Predicted) != want || len(t.Actual) != want {
		return fmt.Errorf("cluster: degradation table has %d/%d cells, want %d", len(t.Predicted), len(t.Actual), want)
	}
	return nil
}

// QoSKind selects how QoS is defined.
type QoSKind int

const (
	// QoSAvg defines QoS as retained average performance (1 − degradation).
	QoSAvg QoSKind = iota
	// QoSTail defines QoS as the solo-to-degraded ratio of the service's
	// percentile latency, which shrinks super-linearly with degradation
	// because of queueing.
	QoSTail
)

// String names the QoS kind.
func (k QoSKind) String() string {
	if k == QoSAvg {
		return "average-performance"
	}
	return "tail-latency"
}

// PolicyKind selects the admission policy.
type PolicyKind int

const (
	// PolicySMiTe admits on predicted degradations.
	PolicySMiTe PolicyKind = iota
	// PolicyOracle admits on measured degradations.
	PolicyOracle
	// PolicyRandom places the same total number of instances as SMiTe
	// would, but on randomly chosen servers without consulting
	// predictions.
	PolicyRandom
	// PolicySLO admits on the error-bound-inflated Eq. 6 tail-latency
	// estimate against per-class budgets (SimConfig.SLO): internal/admit's
	// gate, the one qosd serves at POST /v1/admit.
	PolicySLO
	// PolicyClosedLoop starts from the PolicySLO gate and closes the loop
	// (DESIGN.md §14): each shard runs a drift detector over its observed
	// degradations, re-characterizes confirmed (lat, batch) pairs against
	// the measured surface, re-scores its admission gate, and migrates the
	// worst-offending machine's newest instance off the drifted cell.
	PolicyClosedLoop
	// PolicyIsolation starts from the PolicySLO gate but actuates hardware
	// QoS enforcement before migrating (DESIGN.md §15): a violating
	// co-location escalates its machine through the discrete isolation
	// ladder (SimConfig.Isol — way partitions and bandwidth throttles
	// abstracted to their modeled shielding), and only when no operating
	// point clears the class budget does the instance migrate away.
	PolicyIsolation
)

// String names the policy.
func (k PolicyKind) String() string {
	switch k {
	case PolicySMiTe:
		return "SMiTe"
	case PolicyOracle:
		return "Oracle"
	case PolicyRandom:
		return "Random"
	case PolicySLO:
		return "SLO"
	case PolicyClosedLoop:
		return "ClosedLoop"
	case PolicyIsolation:
		return "Isolation"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(k))
}

// Study describes one scale-out experiment.
type Study struct {
	// Table is the QoS surface admission runs on (BuildPredTable); its QoS
	// kind is the study's QoS definition.
	Table *PredTable
	// ServersPerApp is the number of servers dedicated to each latency
	// application (1,000 in the paper, 4,000 servers total).
	ServersPerApp int
	// ThreadsPerServer is the latency application's thread count per
	// server (6: one per core, half-loading the 12-context servers).
	ThreadsPerServer int
	// ContextsPerServer is the total hardware contexts per server (12).
	ContextsPerServer int
	// Seed drives batch-application arrival randomness.
	Seed uint64
}

// Result summarises one policy × QoS-target run.
type Result struct {
	Policy PolicyKind
	QoS    QoSKind
	Target float64

	// UtilizationGain is the relative increase in busy hardware contexts
	// over the no-co-location baseline (e.g. 0.42 = +42%).
	UtilizationGain float64
	// BaselineUtilization and Utilization are absolute context
	// utilisations before and after co-location.
	BaselineUtilization float64
	Utilization         float64
	// MeanInstances is the average number of batch instances per server.
	MeanInstances float64

	// ColocatedServers counts servers that received at least one batch
	// instance; ViolationFrac is the violating share of those (the paper's
	// server_violated/server_co-located); ViolationMean/Max the normalised
	// violation magnitudes ((target − actual)/target).
	ColocatedServers int
	ViolationFrac    float64
	ViolationMean    float64
	ViolationMax     float64

	// PerApp breaks utilisation gain down by latency application.
	PerApp map[string]float64
}

func (s *Study) validate() error {
	if err := s.Table.Validate(); err != nil {
		return err
	}
	if s.ServersPerApp <= 0 || s.ThreadsPerServer <= 0 || s.ContextsPerServer <= 0 {
		return fmt.Errorf("cluster: server geometry must be positive")
	}
	if s.ThreadsPerServer > s.ContextsPerServer {
		return fmt.Errorf("cluster: %d threads exceed %d contexts", s.ThreadsPerServer, s.ContextsPerServer)
	}
	if s.Table.MaxInstances > s.ContextsPerServer-s.ThreadsPerServer {
		return fmt.Errorf("cluster: %d instances exceed %d idle contexts", s.Table.MaxInstances, s.ContextsPerServer-s.ThreadsPerServer)
	}
	return nil
}

// server is one placement decision: indices into the table's latency and
// batch applications, and the admitted instance count.
type server struct {
	lat, batch, n int
}

// Run executes the study for one policy at one QoS target.
func (s *Study) Run(policy PolicyKind, target float64) (Result, error) {
	if err := s.validate(); err != nil {
		return Result{}, err
	}
	if target <= 0 || target > 1 {
		return Result{}, fmt.Errorf("cluster: QoS target %.3f outside (0,1]", target)
	}
	if policy != PolicySMiTe && policy != PolicyOracle && policy != PolicyRandom {
		return Result{}, fmt.Errorf("cluster: unknown policy %d", policy)
	}
	t := s.Table

	// Deterministic batch-application arrival per server.
	rng := xrand.New(s.Seed ^ 0xC1A5)
	servers := make([]server, 0, len(t.LatencyApps)*s.ServersPerApp)
	for lat := range t.LatencyApps {
		for i := 0; i < s.ServersPerApp; i++ {
			servers = append(servers, server{lat: lat, batch: rng.Intn(len(t.BatchApps))})
		}
	}

	// Admission: each server takes the largest instance count whose QoS
	// (predicted, or measured under Oracle) clears the floor. Random
	// admits as SMiTe does, then deals the same multiset of instance
	// counts to random servers, matching SMiTe's utilisation.
	floor, _ := qosFloor(t, policy, target)
	for i := range servers {
		sv := &servers[i]
		for n := 1; n <= t.MaxInstances; n++ {
			if floor[t.Cell(sv.lat, sv.batch, n)] {
				sv.n = n
			}
		}
	}
	if policy == PolicyRandom {
		counts := make([]int, len(servers))
		for i := range servers {
			counts[i] = servers[i].n
		}
		perm := rng.Perm(len(counts))
		for i := range servers {
			servers[i].n = counts[perm[i]]
		}
	}
	measured, slack := qosFloor(t, PolicyOracle, target)
	return s.score(policy, target, servers, measured, slack), nil
}

// score tallies utilisation and violations. A co-location violates
// exactly when the measured QoS floor rejects its cell, that is when
// Oracle would not have admitted it; its magnitude is the measured
// shortfall (target − actual)/target.
func (s *Study) score(policy PolicyKind, target float64, servers []server, measured []bool, slack []float64) Result {
	t := s.Table
	res := Result{
		Policy: policy, QoS: t.QoS, Target: target,
		PerApp: make(map[string]float64, len(t.LatencyApps)),
	}
	perAppInstances := make([]int, len(t.LatencyApps))
	total := 0
	violations := 0
	var violSum, violMax float64
	for _, sv := range servers {
		total += sv.n
		perAppInstances[sv.lat] += sv.n
		if sv.n == 0 {
			continue
		}
		res.ColocatedServers++
		if cell := t.Cell(sv.lat, sv.batch, sv.n); !measured[cell] {
			violations++
			m := -slack[cell] / target
			violSum += m
			if m > violMax {
				violMax = m
			}
		}
	}
	nServers := len(servers)
	busyBase := float64(s.ThreadsPerServer * nServers)
	res.BaselineUtilization = busyBase / float64(s.ContextsPerServer*nServers)
	res.Utilization = (busyBase + float64(total)) / float64(s.ContextsPerServer*nServers)
	res.UtilizationGain = float64(total) / busyBase
	res.MeanInstances = float64(total) / float64(nServers)
	for lat, n := range perAppInstances {
		res.PerApp[t.LatencyApps[lat]] = float64(n) / float64(s.ThreadsPerServer*s.ServersPerApp)
	}
	if res.ColocatedServers > 0 {
		res.ViolationFrac = float64(violations) / float64(res.ColocatedServers)
		if violations > 0 {
			res.ViolationMean = violSum / float64(violations)
		}
	}
	res.ViolationMax = violMax
	return res
}
