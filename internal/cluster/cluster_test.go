package cluster

import (
	"context"
	"testing"

	"repro/internal/service"
)

// syntheticStudy builds a study with a hand-made degradation table:
// latency app "svc" with batch apps "quiet" (1% per instance) and "noisy"
// (12% per instance), predictions biased slightly low for "noisy" so that
// violations are observable.
func syntheticStudy(t *testing.T, predBias float64, qos QoSKind) *Study {
	t.Helper()
	tbl := NewTable([]string{"svc"}, []string{"quiet", "noisy"}, 6)
	for n := 1; n <= 6; n++ {
		quiet, noisy := tbl.Cell(0, 0, n), tbl.Cell(0, 1, n)
		tbl.Actual[quiet], tbl.Predicted[quiet] = 0.01*float64(n), 0.01*float64(n)
		tbl.Actual[noisy], tbl.Predicted[noisy] = 0.12*float64(n), (0.12-predBias)*float64(n)
	}
	services := map[string]service.Service{"svc": {Name: "svc", Mu: 1000, Lambda: 500, QoSPercentile: 0.9, ReportsPercentile: true}}
	return &Study{
		Table:             studyTable(t, tbl, services, qos),
		ServersPerApp:     500,
		ThreadsPerServer:  6,
		ContextsPerServer: 12,
		Seed:              3,
	}
}

// studyTable builds a study's QoS surface from tbl's own predictions.
func studyTable(t *testing.T, tbl *Table, services map[string]service.Service, qos QoSKind) *PredTable {
	t.Helper()
	pt, err := BuildPredTable(context.Background(), tbl, services, qos, &TablePredictor{Table: tbl}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestSMiTeAdmitsUpToTarget(t *testing.T) {
	s := syntheticStudy(t, 0, QoSAvg)
	r, err := s.Run(PolicySMiTe, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	// quiet: 10% budget allows 6 instances (6%); noisy: 10%/12% allows 0.
	// With ~half the servers drawing each batch app, the mean instances
	// should be ≈ 3 (6 on quiet servers, 0 on noisy ones).
	if r.MeanInstances < 2 || r.MeanInstances > 4 {
		t.Errorf("mean instances = %.2f, want ≈3", r.MeanInstances)
	}
	// Perfect predictions: zero violations.
	if r.ViolationFrac != 0 {
		t.Errorf("violations %.3f with a perfect predictor", r.ViolationFrac)
	}
	if r.BaselineUtilization != 0.5 {
		t.Errorf("baseline utilization = %.3f, want 0.5", r.BaselineUtilization)
	}
	wantUtil := 0.5 * (1 + r.UtilizationGain)
	if diff := r.Utilization - wantUtil; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("utilization %.4f inconsistent with gain %.4f", r.Utilization, r.UtilizationGain)
	}
}

func TestOracleNeverViolates(t *testing.T) {
	s := syntheticStudy(t, 0.05, QoSAvg) // predictions underestimate noisy by 5%/instance
	r, err := s.Run(PolicyOracle, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if r.ViolationFrac != 0 {
		t.Errorf("oracle violated %.3f of co-locations", r.ViolationFrac)
	}
}

func TestBiasedPredictionsCauseViolations(t *testing.T) {
	s := syntheticStudy(t, 0.05, QoSAvg)
	r, err := s.Run(PolicySMiTe, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	// Underestimating noisy by 5%/instance admits 1 instance (7% predicted
	// = fits budget; actual 12% > 10% budget → violation on noisy servers).
	if r.ViolationFrac == 0 {
		t.Error("biased predictor should violate")
	}
	if r.ViolationMax <= 0 {
		t.Error("violation magnitude not recorded")
	}
}

func TestRandomMatchesSMiTeUtilization(t *testing.T) {
	s := syntheticStudy(t, 0, QoSAvg)
	sm, err := s.Run(PolicySMiTe, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := s.Run(PolicyRandom, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	if sm.UtilizationGain != rd.UtilizationGain {
		t.Errorf("Random gain %.4f != SMiTe gain %.4f", rd.UtilizationGain, sm.UtilizationGain)
	}
	// Randomly placing instances sized for quiet servers onto noisy ones
	// must violate much more than SMiTe.
	if rd.ViolationFrac <= sm.ViolationFrac {
		t.Errorf("Random violations (%.3f) should exceed SMiTe's (%.3f)", rd.ViolationFrac, sm.ViolationFrac)
	}
}

func TestTailQoSAdmitsLess(t *testing.T) {
	avg, err := syntheticStudy(t, 0, QoSAvg).Run(PolicySMiTe, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := syntheticStudy(t, 0, QoSTail).Run(PolicySMiTe, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	// Tail latency degrades super-linearly: the same target admits less.
	if tail.UtilizationGain >= avg.UtilizationGain {
		t.Errorf("tail QoS gain %.3f should be below avg QoS gain %.3f", tail.UtilizationGain, avg.UtilizationGain)
	}
}

func TestUtilizationGainMonotoneInTarget(t *testing.T) {
	s := syntheticStudy(t, 0, QoSAvg)
	prev := -1.0
	for _, target := range []float64{0.95, 0.90, 0.85} {
		r, err := s.Run(PolicySMiTe, target)
		if err != nil {
			t.Fatal(err)
		}
		if r.UtilizationGain < prev {
			t.Errorf("gain at %.2f (%.3f) below gain at tighter target (%.3f)", target, r.UtilizationGain, prev)
		}
		prev = r.UtilizationGain
	}
}

func TestStudyValidation(t *testing.T) {
	s := syntheticStudy(t, 0, QoSAvg)
	if _, err := s.Run(PolicySMiTe, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := s.Run(PolicySMiTe, 1.5); err == nil {
		t.Error("target > 1 accepted")
	}
	if _, err := s.Run(PolicyKind(99), 0.9); err == nil {
		t.Error("unknown policy accepted")
	}
	s.Table = &PredTable{LatencyApps: []string{"svc"}, BatchApps: []string{"x"}, MaxInstances: 2} // no cells
	if _, err := s.Run(PolicySMiTe, 0.9); err == nil {
		t.Error("incomplete surface accepted")
	}
	s.Table = nil
	if _, err := s.Run(PolicySMiTe, 0.9); err == nil {
		t.Error("missing surface accepted")
	}
	s2 := syntheticStudy(t, 0, QoSAvg)
	s2.ThreadsPerServer = 20
	if _, err := s2.Run(PolicySMiTe, 0.9); err == nil {
		t.Error("threads > contexts accepted")
	}
}

// BuildPredTable is where a study's inputs are checked: a degradation
// table missing cells, a missing predictor, and tail QoS without the
// services' queueing parameters are all rejected there.
func TestBuildPredTableValidation(t *testing.T) {
	ctx := context.Background()
	short := &Table{LatencyApps: []string{"svc"}, BatchApps: []string{"x"}, MaxInstances: 2, Predicted: []float64{0.1}, Actual: []float64{0.1}}
	if _, err := BuildPredTable(ctx, short, nil, QoSAvg, &TablePredictor{Table: short}, 1); err == nil {
		t.Error("incomplete table accepted")
	}
	tbl := NewTable([]string{"svc"}, []string{"x"}, 2)
	if _, err := BuildPredTable(ctx, tbl, nil, QoSAvg, nil, 1); err == nil {
		t.Error("nil predictor accepted")
	}
	if _, err := BuildPredTable(ctx, tbl, nil, QoSTail, &TablePredictor{Table: tbl}, 1); err == nil {
		t.Error("tail QoS without services accepted")
	}
}

// TestTablePredictor checks name resolution onto the dense cells.
func TestTablePredictor(t *testing.T) {
	tbl := NewTable([]string{"a", "b"}, []string{"x", "y"}, 2)
	tbl.Predicted[tbl.Cell(1, 0, 2)] = 0.2
	p := &TablePredictor{Table: tbl}
	if got, err := p.Predict("b", "x", 2); err != nil || got.Deg != 0.2 || got.Tier != TierTable {
		t.Errorf("Predict(b, x, 2) = %+v, %v; want deg 0.2 from the table tier", got, err)
	}
	for _, bad := range []struct {
		lat, batch string
		n          int
	}{{"c", "x", 1}, {"a", "z", 1}, {"a", "x", 0}, {"a", "x", 3}} {
		if _, err := p.Predict(bad.lat, bad.batch, bad.n); err == nil {
			t.Errorf("Predict(%s, %s, %d) accepted", bad.lat, bad.batch, bad.n)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	s := syntheticStudy(t, 0.02, QoSAvg)
	a, err := s.Run(PolicyRandom, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Run(PolicyRandom, 0.90)
	if a.ViolationFrac != b.ViolationFrac || a.MeanInstances != b.MeanInstances {
		t.Error("study not deterministic")
	}
}

func TestStrings(t *testing.T) {
	if PolicySMiTe.String() != "SMiTe" || PolicyOracle.String() != "Oracle" || PolicyRandom.String() != "Random" {
		t.Error("policy names wrong")
	}
	if QoSAvg.String() == QoSTail.String() {
		t.Error("QoS kind names collide")
	}
}
