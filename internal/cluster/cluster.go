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
	"sort"

	"repro/internal/service"
	"repro/internal/xrand"
)

// Entry records the measured and predicted degradation of a latency
// application co-located with a number of batch-application instances.
type Entry struct {
	Actual    float64
	Predicted float64
}

// Table is the co-location degradation table driving a study: one Entry
// per (latency app, batch app, instance count 1..MaxInstances).
type Table struct {
	LatencyApps  []string
	BatchApps    []string
	MaxInstances int
	entries      map[string]Entry
}

func tkey(lat, batch string, n int) string { return fmt.Sprintf("%s|%s|%d", lat, batch, n) }

// NewTable builds an empty table.
func NewTable(latencyApps, batchApps []string, maxInstances int) *Table {
	return &Table{
		LatencyApps:  append([]string(nil), latencyApps...),
		BatchApps:    append([]string(nil), batchApps...),
		MaxInstances: maxInstances,
		entries:      make(map[string]Entry),
	}
}

// Set stores the entry for (lat, batch, n).
func (t *Table) Set(lat, batch string, n int, e Entry) {
	t.entries[tkey(lat, batch, n)] = e
}

// Get fetches the entry for (lat, batch, n); n == 0 returns zero
// degradations.
func (t *Table) Get(lat, batch string, n int) (Entry, error) {
	if n == 0 {
		return Entry{}, nil
	}
	e, ok := t.entries[tkey(lat, batch, n)]
	if !ok {
		return Entry{}, fmt.Errorf("cluster: no table entry for %s|%s|%d", lat, batch, n)
	}
	return e, nil
}

// Complete verifies every (lat, batch, 1..MaxInstances) entry is present.
func (t *Table) Complete() error {
	for _, l := range t.LatencyApps {
		for _, b := range t.BatchApps {
			for n := 1; n <= t.MaxInstances; n++ {
				if _, err := t.Get(l, b, n); err != nil {
					return err
				}
			}
		}
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
	// Table holds the co-location degradations.
	Table *Table
	// Services supplies queueing parameters for tail-latency QoS, keyed by
	// latency-application name (only needed for QoSTail).
	Services map[string]service.Service
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
	if s.Table == nil {
		return fmt.Errorf("cluster: study needs a table")
	}
	if err := s.Table.Complete(); err != nil {
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

// qosOf maps a degradation to QoS under the study's definition.
func (s *Study) qosOf(kind QoSKind, lat string, deg float64) (float64, error) {
	return qosValue(kind, s.Services, lat, deg)
}

// server is one placement decision.
type server struct {
	lat   string
	batch string
	n     int
}

// Run executes the study for one policy at one QoS target.
func (s *Study) Run(policy PolicyKind, qos QoSKind, target float64) (Result, error) {
	if err := s.validate(); err != nil {
		return Result{}, err
	}
	if target <= 0 || target > 1 {
		return Result{}, fmt.Errorf("cluster: QoS target %.3f outside (0,1]", target)
	}

	// Deterministic batch-application arrival per server.
	rng := xrand.New(s.Seed ^ 0xC1A5)
	servers := make([]server, 0, len(s.Table.LatencyApps)*s.ServersPerApp)
	for _, lat := range s.Table.LatencyApps {
		for i := 0; i < s.ServersPerApp; i++ {
			b := s.Table.BatchApps[rng.Intn(len(s.Table.BatchApps))]
			servers = append(servers, server{lat: lat, batch: b})
		}
	}

	// Admission: the predictive policies choose the largest instance count
	// whose (predicted or measured) QoS stays within target.
	admit := func(sv *server, useActual bool) error {
		best := 0
		for n := 1; n <= s.Table.MaxInstances; n++ {
			e, err := s.Table.Get(sv.lat, sv.batch, n)
			if err != nil {
				return err
			}
			d := e.Predicted
			if useActual {
				d = e.Actual
			}
			q, err := s.qosOf(qos, sv.lat, d)
			if err != nil {
				return err
			}
			if q >= target {
				best = n
			}
		}
		sv.n = best
		return nil
	}

	switch policy {
	case PolicySMiTe, PolicyOracle:
		for i := range servers {
			if err := admit(&servers[i], policy == PolicyOracle); err != nil {
				return Result{}, err
			}
		}
	case PolicyRandom:
		// Match SMiTe's utilisation: compute SMiTe's choices, then deal the
		// same multiset of instance counts to random servers.
		counts := make([]int, len(servers))
		for i := range servers {
			if err := admit(&servers[i], false); err != nil {
				return Result{}, err
			}
			counts[i] = servers[i].n
		}
		perm := rng.Perm(len(counts))
		for i := range servers {
			servers[i].n = counts[perm[i]]
		}
	default:
		return Result{}, fmt.Errorf("cluster: unknown policy %d", policy)
	}

	return s.score(policy, qos, target, servers)
}

func (s *Study) score(policy PolicyKind, qos QoSKind, target float64, servers []server) (Result, error) {
	res := Result{
		Policy: policy, QoS: qos, Target: target,
		PerApp: make(map[string]float64),
	}
	perAppInstances := make(map[string]int)
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
		e, err := s.Table.Get(sv.lat, sv.batch, sv.n)
		if err != nil {
			return Result{}, err
		}
		q, err := s.qosOf(qos, sv.lat, e.Actual)
		if err != nil {
			return Result{}, err
		}
		if q < target {
			violations++
			m := (target - q) / target
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
	for app, n := range perAppInstances {
		res.PerApp[app] = float64(n) / float64(s.ThreadsPerServer*s.ServersPerApp)
	}
	if res.ColocatedServers > 0 {
		res.ViolationFrac = float64(violations) / float64(res.ColocatedServers)
		if violations > 0 {
			res.ViolationMean = violSum / float64(violations)
		}
	}
	res.ViolationMax = violMax
	return res, nil
}

// BatchAbsorbed returns how many dedicated batch servers the co-located
// instances replace, assuming a dedicated batch server runs one instance
// per core (ThreadsPerServer instances).
func (s *Study) BatchAbsorbed(r Result) float64 {
	totalInstances := r.MeanInstances * float64(len(s.Table.LatencyApps)*s.ServersPerApp)
	return totalInstances / float64(s.ThreadsPerServer)
}

// SortedApps returns the per-app keys of a result in stable order.
func (r Result) SortedApps() []string {
	out := make([]string, 0, len(r.PerApp))
	for a := range r.PerApp {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
