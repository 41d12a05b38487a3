package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRun pins a 100-machine, ~10k-event simulation end to end:
// the summary aggregates, the placement-log length, a hash of every log
// entry, and the first placements verbatim. Any change to the workload
// generator, the event loop, the placement policy or the merge order
// shows up as a fixture diff; regenerate deliberately with -update.
type goldenRun struct {
	Summary Summary     `json:"summary"`
	LogLen  int         `json:"log_len"`
	LogHash uint64      `json:"log_hash"`
	Head    []Placement `json:"head"`
}

func goldenConfig(tb testing.TB) SimConfig {
	cfg := synthSimConfig(tb, 100, 2, 97)
	cfg.Workload.ArrivalRate = 3600
	cfg.Workload.MeanDuration = 0.05
	cfg.Workload.Churn = 0.05
	return cfg
}

func hashLog(log []Placement) uint64 {
	h := fnv.New64a()
	for _, p := range log {
		fmt.Fprintf(h, "%g|%d|%d|%d|%d|%d|%d\n", p.At, p.Shard, p.Seq, p.Machine, p.Lat, p.Batch, p.N)
	}
	return h.Sum64()
}

func TestGoldenClusterSim(t *testing.T) {
	cfg := goldenConfig(t)
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 9_000 || res.Events > 20_000 {
		t.Fatalf("golden run drifted to %d events, want ~10k", res.Events)
	}
	got := goldenRun{
		Summary: res.Summary(),
		LogLen:  len(res.Log),
		LogHash: hashLog(res.Log),
	}
	head := 5
	if len(res.Log) < head {
		head = len(res.Log)
	}
	got.Head = res.Log[:head]

	checkGolden(t, "golden_cluster.json", got)
}

// checkGolden compares got against the named fixture, or rewrites the
// fixture under -update.
func checkGolden[T any](t *testing.T, name string, got T) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("golden mismatch (run with -update if intentional):\ngot %s", gj)
	}
}

// TestGoldenSLOClusterSim pins the SLO-gated policy end to end the same
// way: summary (including the saturation block), log length, and log hash
// over a seeded run.
func TestGoldenSLOClusterSim(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Policy = PolicySLO
	cfg.SLO = sloSimParams()
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRun{
		Summary: res.Summary(),
		LogLen:  len(res.Log),
		LogHash: hashLog(res.Log),
	}
	head := 5
	if len(res.Log) < head {
		head = len(res.Log)
	}
	got.Head = res.Log[:head]
	checkGolden(t, "golden_cluster_slo.json", got)
}

// TestGoldenClosedLoopClusterSim pins the closed loop end to end: the
// same seeded run under injected drift, with the summary's closed-loop
// block (detections, re-characterizations, migrations) and the placement
// log — migrate entries included — hashed into the fixture.
func TestGoldenClosedLoopClusterSim(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Policy = PolicyClosedLoop
	cfg.SLO = sloSimParams()
	cfg.Drift = &DriftSpec{At: cfg.Workload.Horizon / 3, Factor: 3}
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer saveFailureTrace(t, cfg, events)
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 {
		t.Fatal("golden closed-loop run confirmed no drift; fixture would pin a dead loop")
	}
	got := goldenRun{
		Summary: res.Summary(),
		LogLen:  len(res.Log),
		LogHash: hashLog(res.Log),
	}
	head := 5
	if len(res.Log) < head {
		head = len(res.Log)
	}
	got.Head = res.Log[:head]
	checkGolden(t, "golden_cluster_closedloop.json", got)
}

// TestGoldenDegenerateSim pins the empty-trace edge as a fixture: a world
// with no machines and no arrivals must reduce to a zeroed summary and an
// empty placement log, byte for byte.
func TestGoldenDegenerateSim(t *testing.T) {
	cfg := synthSimConfig(t, 0, 1, 53)
	cfg.Workload.ArrivalRate = 0
	cfg.Workload.Churn = 0
	events, err := GenerateEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSim(context.Background(), cfg, events, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRun{
		Summary: res.Summary(),
		LogLen:  len(res.Log),
		LogHash: hashLog(res.Log),
		Head:    res.Log[:0],
	}
	checkGolden(t, "golden_cluster_degenerate.json", got)
}

// TestStudyGolden pins the static scale-out study's numbers: the full
// Result of every policy × QoS definition × paper target on a seeded
// synthetic table, with fixed queueing parameters spanning light to heavy
// load so tail QoS admits unevenly across the latency apps.
func TestStudyGolden(t *testing.T) {
	_, tbl, err := SyntheticWorld(4, 6, 6, 41)
	if err != nil {
		t.Fatal(err)
	}
	services := make(map[string]service.Service)
	for i, lat := range tbl.LatencyApps {
		services[lat] = service.Service{Name: lat, Mu: 1000, Lambda: 100 + 150*float64(i), QoSPercentile: 0.9, ReportsPercentile: true}
	}
	var got []Result
	for _, qos := range []QoSKind{QoSAvg, QoSTail} {
		s := &Study{Table: studyTable(t, tbl, services, qos), ServersPerApp: 250, ThreadsPerServer: 6, ContextsPerServer: 12, Seed: 7}
		for _, target := range []float64{0.95, 0.90, 0.85} {
			for _, pol := range []PolicyKind{PolicySMiTe, PolicyOracle, PolicyRandom} {
				r, err := s.Run(pol, target)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, r)
			}
		}
	}
	checkGolden(t, "golden_study.json", got)
}
