package qosd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/smite"
)

// testChars builds hand-made characterizations (no simulator involved, so
// the package tests are fast).
func testChars() []smite.Characterization {
	victim := smite.Characterization{App: "web-search", SoloIPC: 1.2}
	aggr := smite.Characterization{App: "429.mcf", SoloIPC: 0.5}
	quiet := smite.Characterization{App: "444.namd", SoloIPC: 1.8}
	for d := range victim.Sen {
		victim.Sen[d] = 0.05 * float64(d+1)
		aggr.Con[d] = 0.1 * float64(d+1)
		quiet.Con[d] = 0.01
	}
	return []smite.Characterization{victim, aggr, quiet}
}

func testModel() smite.Model {
	var coef [smite.NumDimensions]float64
	for d := range coef {
		coef[d] = 0.2
	}
	return smite.NewModel(coef, 0.01)
}

// newTestServer builds a loaded registry plus a Server and an httptest
// transport around the full middleware stack.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	reg := NewRegistry()
	reg.AddProfiles(testChars())
	reg.SetModel(testModel())
	s := NewServer(reg, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL, ts.Client())
}

func TestPredictMatchesModelExactly(t *testing.T) {
	_, c := newTestServer(t, Config{})
	chars := testChars()
	m := testModel()

	got, err := c.Predict(context.Background(), PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical, not approximately equal: encoding/json round-trips
	// float64 exactly, so the served prediction must equal the in-process
	// one to the last bit.
	if want := m.PredictPair(chars[0], chars[1]); got.Degradation != want {
		t.Errorf("served degradation %v != in-process %v", got.Degradation, want)
	}

	part, err := c.Predict(context.Background(), PredictRequest{
		Victim: "web-search", Aggressor: "429.mcf", Instances: 2, Threads: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := m.PredictPartial(chars[0], chars[1], 2, 6); part.Degradation != want {
		t.Errorf("served partial degradation %v != in-process %v", part.Degradation, want)
	}
	if part.Degradation == got.Degradation {
		t.Error("partial occupancy did not change the prediction")
	}
}

func TestPredictValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cases := []struct {
		name     string
		req      PredictRequest
		wantCode string
		wantHTTP int
	}{
		{"missing victim", PredictRequest{Aggressor: "429.mcf"}, CodeInvalidArgument, 400},
		{"missing aggressor", PredictRequest{Victim: "web-search"}, CodeInvalidArgument, 400},
		{"unknown victim", PredictRequest{Victim: "nope", Aggressor: "429.mcf"}, CodeUnknownProfile, 404},
		{"unknown aggressor", PredictRequest{Victim: "web-search", Aggressor: "nope"}, CodeUnknownProfile, 404},
		{"instances without threads", PredictRequest{Victim: "web-search", Aggressor: "429.mcf", Instances: 2}, CodeInvalidArgument, 400},
		{"instances beyond threads", PredictRequest{Victim: "web-search", Aggressor: "429.mcf", Instances: 7, Threads: 6}, CodeInvalidArgument, 400},
		{"zero instances with threads", PredictRequest{Victim: "web-search", Aggressor: "429.mcf", Threads: 6}, CodeInvalidArgument, 400},
		{"negative threads", PredictRequest{Victim: "web-search", Aggressor: "429.mcf", Instances: 1, Threads: -1}, CodeInvalidArgument, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Predict(context.Background(), tc.req)
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("got %v, want *APIError", err)
			}
			if apiErr.Code != tc.wantCode || apiErr.Status != tc.wantHTTP {
				t.Errorf("got %s/%d, want %s/%d", apiErr.Code, apiErr.Status, tc.wantCode, tc.wantHTTP)
			}
		})
	}
}

func TestNoModelReturns503(t *testing.T) {
	reg := NewRegistry()
	reg.AddProfiles(testChars())
	ts := httptest.NewServer(NewServer(reg, Config{}).Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())

	_, err := c.Predict(context.Background(), PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeNoModel || apiErr.Status != 503 {
		t.Errorf("got %v, want no_model/503", err)
	}
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.ModelLoaded || h.Profiles != 3 {
		t.Errorf("health %+v, want 3 profiles and no model", h)
	}
}

func TestColocateDecision(t *testing.T) {
	_, c := newTestServer(t, Config{})
	chars := testChars()
	m := testModel()
	deg := m.PredictPair(chars[0], chars[1])
	if deg <= 0 || deg >= 1 {
		t.Fatalf("test fixture degradation %v not in (0,1)", deg)
	}

	// A target just below the retained performance is safe; just above, unsafe.
	for _, tc := range []struct {
		target float64
		safe   bool
	}{
		{1 - deg - 1e-9, true},
		{1 - deg + 1e-9, false},
	} {
		got, err := c.Colocate(context.Background(), ColocateRequest{
			Victim: "web-search", Aggressor: "429.mcf", QoSTarget: tc.target,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Safe != tc.safe {
			t.Errorf("target %v: safe=%v, want %v (deg %v)", tc.target, got.Safe, tc.safe, got.Degradation)
		}
		if got.QoS != 1-got.Degradation {
			t.Errorf("qos %v != 1-deg %v", got.QoS, 1-got.Degradation)
		}
	}
}

func TestColocateTailLatency(t *testing.T) {
	_, c := newTestServer(t, Config{})
	chars := testChars()
	m := testModel()
	deg := m.PredictPair(chars[0], chars[1])

	// Stable queue: the response carries Equation 6 exactly.
	got, err := c.Colocate(context.Background(), ColocateRequest{
		Victim: "web-search", Aggressor: "429.mcf", QoSTarget: 0.5,
		Queue: &QueueSpec{Mu: 1000, Lambda: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Saturated || got.TailLatency == nil {
		t.Fatalf("stable queue came back saturated: %+v", got)
	}
	want, err := smite.PredictTailLatency(0.90, 1000, 100, deg)
	if err != nil {
		t.Fatal(err)
	}
	if *got.TailLatency != want {
		t.Errorf("tail latency %v != Equation 6 %v", *got.TailLatency, want)
	}
	if *got.TailLatency < 0 {
		t.Errorf("negative tail latency %v", *got.TailLatency)
	}

	// Saturated queue: the degradation pushes mu' = (1-deg)*mu below
	// lambda; the daemon must flag saturation rather than emit a negative
	// or infinite latency.
	lambda := (1 - deg) * 1000 * 1.01
	got, err = c.Colocate(context.Background(), ColocateRequest{
		Victim: "web-search", Aggressor: "429.mcf", QoSTarget: 0.5,
		Queue: &QueueSpec{Mu: 1000, Lambda: lambda, Percentile: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Saturated || got.TailLatency != nil {
		t.Errorf("saturated queue not flagged: %+v", got)
	}
}

func TestColocateValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	base := ColocateRequest{Victim: "web-search", Aggressor: "429.mcf", QoSTarget: 0.9}
	cases := []struct {
		name   string
		mutate func(*ColocateRequest)
	}{
		{"zero target", func(r *ColocateRequest) { r.QoSTarget = 0 }},
		{"target above one", func(r *ColocateRequest) { r.QoSTarget = 1.5 }},
		{"non-positive mu", func(r *ColocateRequest) { r.Queue = &QueueSpec{Mu: 0, Lambda: 1} }},
		{"non-positive lambda", func(r *ColocateRequest) { r.Queue = &QueueSpec{Mu: 1, Lambda: -2} }},
		{"percentile at one", func(r *ColocateRequest) { r.Queue = &QueueSpec{Mu: 10, Lambda: 1, Percentile: 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base
			tc.mutate(&req)
			_, err := c.Colocate(context.Background(), req)
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Code != CodeInvalidArgument {
				t.Errorf("got %v, want invalid_argument", err)
			}
		})
	}
}

func TestBatchScoresCandidateSet(t *testing.T) {
	_, c := newTestServer(t, Config{})
	chars := testChars()
	m := testModel()

	got, err := c.Batch(context.Background(), BatchRequest{
		Victim: "web-search", Threads: 6, QoSTarget: 0.9,
		Candidates: []BatchCandidate{
			{Aggressor: "429.mcf", Instances: 6},
			{Aggressor: "444.namd", Instances: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(got.Results))
	}
	wants := []float64{
		m.PredictPartial(chars[0], chars[1], 6, 6),
		m.PredictPartial(chars[0], chars[2], 1, 6),
	}
	for i, res := range got.Results {
		if res.Degradation != wants[i] {
			t.Errorf("result %d: degradation %v != in-process %v", i, res.Degradation, wants[i])
		}
		if res.Safe == nil {
			t.Errorf("result %d: Safe missing despite qos_target", i)
		} else if *res.Safe != (1-res.Degradation >= 0.9) {
			t.Errorf("result %d: safe=%v inconsistent with deg %v", i, *res.Safe, res.Degradation)
		}
	}
	if got.Results[0].Aggressor != "429.mcf" || got.Results[1].Aggressor != "444.namd" {
		t.Error("results not in candidate order")
	}

	// Without a target the Safe field is omitted.
	got, err = c.Batch(context.Background(), BatchRequest{
		Victim:     "web-search",
		Candidates: []BatchCandidate{{Aggressor: "429.mcf"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Results[0].Safe != nil {
		t.Error("Safe present without qos_target")
	}

	// One bad candidate fails the whole request, naming the candidate.
	_, err = c.Batch(context.Background(), BatchRequest{
		Victim: "web-search",
		Candidates: []BatchCandidate{
			{Aggressor: "429.mcf"},
			{Aggressor: "ghost"},
		},
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeUnknownProfile {
		t.Fatalf("got %v, want unknown_profile", err)
	}
	if !strings.Contains(apiErr.Message, "candidate 1") {
		t.Errorf("error %q does not name the failing candidate", apiErr.Message)
	}
}

func TestProfileUploadRoundTripAndInvalidation(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()

	before, err := c.Predict(ctx, PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
	if err != nil {
		t.Fatal(err)
	}

	// Re-upload the aggressor with a hotter contentiousness profile; the
	// memoized prediction must not survive the upload.
	hot := testChars()[1]
	for d := range hot.Con {
		hot.Con[d] *= 2
	}
	resp, err := c.UploadProfiles(ctx, []smite.Characterization{hot})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Added != 1 || resp.Total != 3 {
		t.Errorf("upload ack %+v, want added=1 total=3", resp)
	}
	after, err := c.Predict(ctx, PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Degradation <= before.Degradation {
		t.Errorf("stale prediction after re-upload: before %v, after %v", before.Degradation, after.Degradation)
	}
	if want := testModel().PredictPair(testChars()[0], hot); after.Degradation != want {
		t.Errorf("post-upload degradation %v != in-process %v", after.Degradation, want)
	}
	if s.reg.Len() != 3 {
		t.Errorf("registry size %d after replace-by-name, want 3", s.reg.Len())
	}
}

func TestProfileUploadRejectsBadPayloads(t *testing.T) {
	_, c := newTestServer(t, Config{})
	var good strings.Builder
	if err := smite.SaveProfiles(&good, testChars()[:1]); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body string
	}{
		{"truncated", good.String()[:good.Len()/2]},
		{"not json", "ceci n'est pas un json"},
		{"version skew", strings.Replace(good.String(), `"version": 1`, `"version": 99`, 1)},
		{"short sen vector", tamperFirstProfile(t, good.String(), "Sen", []float64{0.5, 0.25})},
		{"bad placement", tamperFirstProfile(t, good.String(), "Placement", 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := c.roundTrip(context.Background(), http.MethodPost, "/v1/profiles",
				strings.NewReader(tc.body), nil)
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Code != CodeUnprocessable || apiErr.Status != 422 {
				t.Errorf("got %v, want unprocessable_profiles/422", err)
			}
		})
	}
}

// tamperFirstProfile sets one field of the first profile in an encoded
// profile file.
func tamperFirstProfile(t *testing.T, s, field string, value any) string {
	t.Helper()
	var f map[string]any
	if err := json.Unmarshal([]byte(s), &f); err != nil {
		t.Fatal(err)
	}
	f["profiles"].([]any)[0].(map[string]any)[field] = value
	out, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestRoutingErrorsAreTypedJSON(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path string
		wantCode     string
		wantHTTP     int
	}{
		{http.MethodGet, "/v1/predict", CodeMethodNotAllowed, 405},
		{http.MethodPost, "/healthz", CodeMethodNotAllowed, 405},
		{http.MethodGet, "/no/such/route", CodeNotFound, 404},
	} {
		err := c.roundTrip(context.Background(), tc.method, tc.path, nil, nil)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != tc.wantCode || apiErr.Status != tc.wantHTTP {
			t.Errorf("%s %s: got %v, want %s/%d", tc.method, tc.path, err, tc.wantCode, tc.wantHTTP)
		}
	}

	// Malformed JSON bodies get the bad_json code.
	err := c.roundTrip(context.Background(), http.MethodPost, "/v1/predict",
		strings.NewReader("{"), nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeBadJSON || apiErr.Status != 400 {
		t.Errorf("malformed body: got %v, want bad_json/400", err)
	}
}

func TestMetricsReflectTraffic(t *testing.T) {
	_, c := newTestServer(t, Config{MaxInFlight: 8})
	ctx := context.Background()

	req := PredictRequest{Victim: "web-search", Aggressor: "429.mcf"}
	for i := 0; i < 3; i++ {
		if _, err := c.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Predict(ctx, PredictRequest{Victim: "web-search", Aggressor: "missing"}); err == nil {
		t.Fatal("expected unknown_profile")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pr := m.Requests["POST /v1/predict"]
	if pr.Total != 4 || pr.Status2xx != 3 || pr.Status4xx != 1 {
		t.Errorf("predict route counts %+v, want total=4 2xx=3 4xx=1", pr)
	}
	// Three identical predictions: one miss, two memo hits.
	if m.PredictionCache.Misses != 1 || m.PredictionCache.Hits != 2 || m.PredictionCache.Entries != 1 {
		t.Errorf("prediction cache %+v, want hits=2 misses=1 entries=1", m.PredictionCache)
	}
	if m.Profiles != 3 || !m.ModelLoaded || m.MaxInFlight != 8 {
		t.Errorf("registry gauges %+v", m)
	}
	if m.Latency.Window < 4 || m.Latency.Max < m.Latency.P50 {
		t.Errorf("latency summary %+v inconsistent", m.Latency)
	}
	if m.UptimeSeconds <= 0 {
		t.Errorf("uptime %v not positive", m.UptimeSeconds)
	}
}

// TestConcurrencyGateSheds exercises the bounded-concurrency middleware
// directly: with one slot held by a parked request, a second request must
// be shed with 429 once its deadline fires.
func TestConcurrencyGateSheds(t *testing.T) {
	s := NewServer(NewRegistry(), Config{MaxInFlight: 1, RequestTimeout: 50 * time.Millisecond})
	entered := make(chan struct{})
	release := make(chan struct{})
	blocking := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h := s.withTimeout(s.limitConcurrency(blocking))
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer close(release)

	go func() {
		resp, err := ts.Client().Get(ts.URL + "/")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != CodeOverloaded {
		t.Errorf("shed response not the typed overloaded envelope: %+v (%v)", env, err)
	}
}

// TestConcurrentTraffic hammers the full stack from many goroutines while
// uploads mutate the registry — the race detector's view of the daemon.
func TestConcurrentTraffic(t *testing.T) {
	_, c := newTestServer(t, Config{MaxInFlight: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch j % 4 {
				case 0:
					_, err := c.Predict(ctx, PredictRequest{Victim: "web-search", Aggressor: "429.mcf"})
					if err != nil {
						t.Errorf("predict: %v", err)
					}
				case 1:
					_, err := c.Batch(ctx, BatchRequest{
						Victim: "web-search", Threads: 4, QoSTarget: 0.9,
						Candidates: []BatchCandidate{{Aggressor: "444.namd", Instances: 2}},
					})
					if err != nil {
						t.Errorf("batch: %v", err)
					}
				case 2:
					ch := testChars()[1]
					ch.Con[0] = float64(i*100+j) * 1e-6
					if _, err := c.UploadProfiles(ctx, []smite.Characterization{ch}); err != nil {
						t.Errorf("upload: %v", err)
					}
				case 3:
					if _, err := c.Metrics(ctx); err != nil {
						t.Errorf("metrics: %v", err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestUploadErrorMapsAllLoadClasses(t *testing.T) {
	for _, err := range []error{
		fmt.Errorf("wrap: %w", smite.ErrCorrupt),
		fmt.Errorf("wrap: %w", smite.ErrVersionSkew),
		fmt.Errorf("wrap: %w", smite.ErrDimensionMismatch),
	} {
		if e := uploadError(err); e.Status != 422 || e.Code != CodeUnprocessable {
			t.Errorf("%v mapped to %d/%s", err, e.Status, e.Code)
		}
	}
}

// Saturated predictions must never surface as negative numbers anywhere
// in the API (the queueing guard returns +Inf, and the handler converts
// that to the saturated flag). The second half drives the degradation
// itself to the edges — exactly 1.0 (zero drain), NaN and ±Inf — via
// hand-built profiles (JSON uploads cannot carry non-finite numbers, so
// the profiles go in through the in-process registry): every one must
// surface as Saturated with the latency omitted, never as a zero or
// negative number.
func TestNoNegativeLatencyEverLeaks(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, lambda := range []float64{1, 500, 999, 1500} {
		got, err := c.Colocate(context.Background(), ColocateRequest{
			Victim: "web-search", Aggressor: "429.mcf", QoSTarget: 0.5,
			Queue: &QueueSpec{Mu: 1000, Lambda: lambda},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.TailLatency != nil && (*got.TailLatency < 0 || math.IsInf(*got.TailLatency, 0)) {
			t.Errorf("lambda=%v: leaked latency %v", lambda, *got.TailLatency)
		}
		if got.TailLatency == nil && !got.Saturated {
			t.Errorf("lambda=%v: latency omitted without saturated flag", lambda)
		}
	}

	// testModel is intercept 0.01 with every coefficient 0.2, so a victim
	// with Sen[0]=1 against Con[0]=x predicts 0.01 + 0.2x: pick x to land
	// the degradation exactly on (or beyond) the edge under test.
	s, c := newTestServer(t, Config{})
	conFor := func(deg float64) float64 { return (deg - 0.01) / 0.2 }
	cases := []struct {
		name string
		con  float64
	}{
		{"deg exactly 1.0", conFor(1.0)},
		{"deg above 1.0", conFor(1.5)},
		{"NaN deg", math.NaN()},
		{"+Inf deg", math.Inf(1)},
		{"-Inf deg", math.Inf(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			victim := smite.Characterization{App: "edge-victim", SoloIPC: 1}
			aggr := smite.Characterization{App: "edge-aggressor", SoloIPC: 1}
			victim.Sen[0] = 1
			aggr.Con[0] = tc.con
			s.reg.AddProfiles([]smite.Characterization{victim, aggr})
			got, err := c.Colocate(context.Background(), ColocateRequest{
				Victim: "edge-victim", Aggressor: "edge-aggressor", QoSTarget: 0.5,
				Queue: &QueueSpec{Mu: 1000, Lambda: 500},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Saturated {
				t.Errorf("degradation edge served without saturated flag: %+v", got)
			}
			if got.TailLatency != nil {
				t.Errorf("degradation edge leaked tail latency %v", *got.TailLatency)
			}
		})
	}
}

// Every prediction reports the registry generation it was computed
// under, and the generation moves exactly when the registry mutates —
// the signal a closed-loop controller uses to confirm that a
// re-characterization landed.
func TestPredictGenerationTracksRegistry(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	req := PredictRequest{Victim: "web-search", Aggressor: "429.mcf"}

	first, err := c.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Generation == 0 {
		t.Fatal("loaded registry served generation 0")
	}
	again, err := c.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Generation != first.Generation {
		t.Fatalf("generation moved without a mutation: %d -> %d", first.Generation, again.Generation)
	}

	// A profile upload is a mutation: the next answer carries a newer
	// generation even though the pair's degradation may be unchanged.
	s.reg.AddProfiles([]smite.Characterization{{App: "bystander", SoloIPC: 1.0}})
	after, err := c.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation <= first.Generation {
		t.Fatalf("generation did not advance across an upload: %d then %d", first.Generation, after.Generation)
	}
}
