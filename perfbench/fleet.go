package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	clworkload "repro/internal/cluster/workload"
	"repro/internal/obs/trace"
	"repro/internal/sched"
)

// fleetWorkload runs cluster.RunSim under PolicyClosedLoop over a seeded
// SyntheticWorld whose degradations drift ×3 at mid-horizon.
type fleetWorkload struct {
	cfg     cluster.SimConfig
	events  [][]clworkload.Event
	workers int
}

// The synthetic world of clusterSimBench: 3 latency-critical × 4 batch
// applications, up to 6 batch instances per server, from its seed 23.
// The world is fixed and the run's seed drives the traffic, so every seed
// asks for comparable work: the world's degradation surface alone moves
// the fleet's rejection rate, and with it the event count, by a quarter.
const (
	worldLats, worldBatches, worldMaxInst = 3, 4, 6
	worldSeed                             = 23
)

// fleetSize is the fleet and its arrival rate. The traffic is the
// `clustersim -sim` mix, 30 jobs per machine over the horizon with mean
// duration 0.05; 50,000 machines keep one RunSim near a second (~3M
// events) and the process under half a gigabyte, where 100,000 took
// twice the time and ~900 MB.
func fleetSize(tiny bool) (machines int, arrival float64) {
	if tiny {
		return 2_000, 60_000
	}
	return 50_000, 1_500_000
}

func setupFleet(seed uint64, tiny bool) (workload, map[string]float64, error) {
	t0 := time.Now()
	set, tbl, err := cluster.SyntheticWorld(worldLats, worldBatches, worldMaxInst, worldSeed)
	if err != nil {
		return nil, nil, err
	}
	pred := cluster.NewTieredPredictor(
		&cluster.SurrogatePredictor{Set: set, Capacity: worldMaxInst},
		&cluster.TablePredictor{Table: tbl},
	)
	pt, err := cluster.BuildPredTable(context.Background(), tbl, nil, cluster.QoSAvg, pred, 0)
	if err != nil {
		return nil, nil, err
	}
	buildPT := time.Since(t0)

	machines, arrival := fleetSize(tiny)
	cfg := cluster.SimConfig{
		Workload: clworkload.Config{
			Machines: machines, Horizon: 1,
			Lats: worldLats, Batches: worldBatches, Seed: seed,
			ArrivalRate:  arrival,
			MeanDuration: 0.05,
			Diurnal:      0.4,
			BurstProb:    0.1, BurstFactor: 2.5,
			Drift: 0.2,
			Churn: 0.02,
		},
		Shards:            16,
		Policy:            cluster.PolicyClosedLoop,
		Target:            0.92,
		ThreadsPerServer:  6,
		ContextsPerServer: 12,
		Table:             pt,
		SLO: &cluster.SLOSimParams{
			Classes: []cluster.SLOSimClass{
				{Name: "critical", Budget: 0.020, Percentile: 0.95, Mu: 1000, Lambda: 600},
				{Name: "standard", Budget: 0.060, Percentile: 0.95, Mu: 1000, Lambda: 600},
				{Name: "sheddable", Budget: 0.150, Percentile: 0.90, Mu: 1000, Lambda: 600},
			},
			Headroom: 0.1,
		},
		Drift: &cluster.DriftSpec{At: 0.5, Factor: 3},
	}
	t1 := time.Now()
	events, err := cluster.GenerateEvents(cfg)
	if err != nil {
		return nil, nil, err
	}
	gen := time.Since(t1)
	w := &fleetWorkload{cfg: cfg, events: events, workers: sched.Workers(0)}
	return w, map[string]float64{
		"cluster.build_predtable_s": buildPT.Seconds(),
		"cluster.generate_events_s": gen.Seconds(),
	}, nil
}

func (w *fleetWorkload) unit(ctx context.Context) (unitResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sctx, span := trace.Start(ctx, "cluster.runsim")
	watch := startWatch()
	res, err := cluster.RunSim(sctx, w.cfg, w.events, w.workers)
	wall, cpu := watch.stop()
	span.End()
	runtime.ReadMemStats(&after)
	if err != nil {
		return unitResult{}, err
	}
	u := unitResult{
		wall: wall, cpu: cpu,
		work:      float64(res.Events),
		requests:  []float64{wall.Seconds()},
		attempted: 1,
		counters: map[string]float64{
			"events":     float64(res.Events),
			"mallocs":    float64(after.Mallocs - before.Mallocs),
			"arrived":    float64(res.Arrived),
			"placed":     float64(res.Placed),
			"detections": float64(res.Detections),
			"migrations": float64(res.Migrations),
			"failed":     float64(res.MigrationsFailed),
		},
	}
	if err := checkFleet(res); err != nil {
		u.failed++
	}
	sum, err := json.Marshal(res.Summary())
	if err != nil {
		return unitResult{}, err
	}
	d := sha256.Sum256(sum)
	u.digest = hex.EncodeToString(d[:])
	return u, nil
}

// checkFleet holds a run to the simulator's conservation laws.
func checkFleet(r cluster.SimResult) error {
	if r.Arrived != r.Placed+r.Rejected {
		return fmt.Errorf("arrived %d != placed %d + rejected %d", r.Arrived, r.Placed, r.Rejected)
	}
	if r.Departed+r.Evicted > r.Placed {
		return fmt.Errorf("departed %d + evicted %d > placed %d", r.Departed, r.Evicted, r.Placed)
	}
	if r.Events <= 0 {
		return fmt.Errorf("no events simulated")
	}
	return nil
}

func (w *fleetWorkload) layers(traced []tracedUnit, untraced []unitResult) map[string]float64 {
	m := map[string]float64{}
	var runs, nsPerEvent, maxOverMean []float64
	for _, t := range traced {
		rs := t.spans.named("cluster.runsim")
		if len(rs) != 1 {
			continue
		}
		s := dur(rs[0]).Seconds()
		runs = append(runs, s)
		nsPerEvent = append(nsPerEvent, s*1e9/t.counters["events"])
		tasks := t.spans.named("sched.task")
		var longest float64
		for _, ts := range tasks {
			if d := dur(ts).Seconds(); d > longest {
				longest = d
			}
		}
		maxOverMean = append(maxOverMean, ratio(longest, totalSeconds(tasks)/float64(len(tasks))))
	}
	m["cluster.runsim_s"] = median(runs)
	m["cluster.ns_per_event"] = median(nsPerEvent)
	m["cluster.shard_max_over_mean"] = median(maxOverMean)

	// Plain counters come from an untraced run, which allocates no spans.
	c := untraced[0].counters
	m["cluster.allocs_per_event"] = ratio(c["mallocs"], c["events"])
	m["cluster.placed_frac"] = ratio(c["placed"], c["arrived"])
	m["cluster.detections"] = c["detections"]
	m["cluster.migrations"] = c["migrations"]
	m["cluster.migrations_failed_frac"] = ratio(c["failed"], c["migrations"])
	return m
}

func (w *fleetWorkload) close() {}
