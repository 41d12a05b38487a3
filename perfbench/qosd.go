package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/trace"
	"repro/internal/qosd"
	"repro/smite"
)

// qosdWorkload serves an in-process qosd daemon on a loopback listener
// and drives /v1/admit from a closed loop of clients, with interleaved
// profile re-uploads.
type qosdWorkload struct {
	set      *smite.Surrogate
	model    smite.Model
	profiles map[string]smite.Characterization
	slo      qosd.SLOConfig

	srv     *http.Server
	served  chan error
	tr      *http.Transport
	clients []*qosd.Client

	// stream is the admits every unit sends, split evenly over the
	// clients; expect holds their in-process answers.
	stream []qosd.AdmitRequest
	expect []expectedAdmit
	// perUpload is the admits per profile re-upload: the mix's
	// read-to-write ratio.
	perUpload int
}

// expectedAdmit is the in-process answer to one admit request.
type expectedAdmit struct {
	tier     string
	deg      float64
	bound    float64
	admitted bool
	reason   string
	remedy   int // isolation ladder level of the remedy, 0 for none
}

const (
	qosdClients      = 2
	qosdMu           = 1000.0
	qosdHeadroom     = 0.1
	qosdFullFraction = 0.7
)

func setupQosd(seed uint64, tiny bool) (workload, map[string]float64, error) {
	set, _, err := cluster.SyntheticWorld(worldLats, worldBatches, worldMaxInst, worldSeed)
	if err != nil {
		return nil, nil, err
	}
	w := &qosdWorkload{
		set:      set,
		model:    smite.NewModel(set.Eq3.Coef, set.Eq3.Intercept),
		profiles: map[string]smite.Characterization{},
		slo:      qosd.SLOConfig{Classes: qosd.DefaultSLOClasses(), Headroom: qosdHeadroom},
	}
	chars := set.Characterizations()
	for _, c := range chars {
		w.profiles[c.App] = c
	}
	reg := qosd.NewRegistry()
	reg.AddProfiles(chars)
	reg.SetModel(w.model)
	slo := w.slo
	server := qosd.NewServer(reg, qosd.Config{Surrogate: set, SLO: &slo})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	w.srv = &http.Server{Handler: server.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.tr = &http.Transport{MaxIdleConnsPerHost: qosdClients, DisableCompression: true}
	hc := &http.Client{Transport: w.tr}
	base := "http://" + ln.Addr().String()
	ctx := context.Background()
	for i := 0; i < qosdClients; i++ {
		c := qosd.NewClient(base, hc)
		if _, err := c.Healthz(ctx); err != nil {
			w.close()
			return nil, nil, err
		}
		w.clients = append(w.clients, c)
	}

	n := 10_000
	w.perUpload = 1000
	if tiny {
		n, w.perUpload = 200, 100
	}
	w.stream = admitStream(seed, n)
	w.expect = make([]expectedAdmit, len(w.stream))
	for i, req := range w.stream {
		w.expect[i] = w.decide(req)
	}
	return w, nil, nil
}

// admitStream draws the request mix: latency-critical victims against
// batch aggressors, 70% at full occupancy (surrogate tier) and 30% at
// partial occupancy (the engine tier's memo), every SLO class, and
// arrival rates spread from comfortably admissible to saturated.
func admitStream(seed uint64, n int) []qosd.AdmitRequest {
	rng := rand.New(rand.NewPCG(seed, 0x9D05D))
	var lats, batches []string
	for i := 0; i < worldLats; i++ {
		lats = append(lats, fmt.Sprintf("latsvc-%02d", i))
	}
	for i := 0; i < worldBatches; i++ {
		batches = append(batches, fmt.Sprintf("batch-%02d", i))
	}
	classes := qosd.DefaultSLOClasses()
	out := make([]qosd.AdmitRequest, n)
	for i := range out {
		req := qosd.AdmitRequest{
			Victim:    lats[rng.IntN(len(lats))],
			Aggressor: batches[rng.IntN(len(batches))],
			Class:     classes[rng.IntN(len(classes))].Name,
			Queue:     qosd.QueueSpec{Mu: qosdMu, Lambda: 200 + 750*rng.Float64()},
		}
		if rng.Float64() >= qosdFullFraction {
			req.Threads = worldMaxInst
			req.Instances = 1 + rng.IntN(worldMaxInst-1)
		}
		out[i] = req
	}
	return out
}

// predict is the daemon's tiered prediction computed in-process: the
// surrogate tier for a full-occupancy pair whose bound is within the
// default threshold, Equation 3 on the registered profiles otherwise.
func (w *qosdWorkload) predict(req qosd.AdmitRequest) (deg, bound float64, tier string) {
	if req.Threads == 0 {
		p, err := w.model.PredictSurrogate(w.set, req.Victim, req.Aggressor)
		if err == nil && p.Bound <= qosd.DefaultSurrogateThreshold {
			return finiteDeg(p.Degradation), p.Bound, qosd.TierSurrogate
		}
	}
	d := w.model.PredictPartial(w.profiles[req.Victim], w.profiles[req.Aggressor], req.Instances, req.Threads)
	return finiteDeg(d), 0, qosd.TierEngine
}

// finiteDeg maps a non-finite degradation to 1, as the daemon does.
func finiteDeg(d float64) float64 {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 1
	}
	return d
}

// evaluate is the admission math: EvaluateAdmission, plus the isolation
// remedy search on a rejection.
func (w *qosdWorkload) evaluate(req qosd.AdmitRequest, deg, bound float64) (qosd.AdmitDecision, *qosd.IsolationRemedy) {
	class, _ := w.slo.Class(req.Class)
	dec := qosd.EvaluateAdmission(deg, bound, req.Queue.Mu, req.Queue.Lambda, class, qosdHeadroom)
	if dec.Admitted {
		return dec, nil
	}
	return dec, qosd.SuggestIsolation(deg, bound, req.Queue.Mu, req.Queue.Lambda, class, qosdHeadroom, nil)
}

// decide is the expected reply to req.
func (w *qosdWorkload) decide(req qosd.AdmitRequest) expectedAdmit {
	deg, bound, tier := w.predict(req)
	dec, remedy := w.evaluate(req, deg, bound)
	e := expectedAdmit{tier: tier, deg: deg, bound: bound, admitted: dec.Admitted, reason: dec.Reason}
	if remedy != nil {
		e.remedy = remedy.Level
	}
	return e
}

// matches reports whether a reply agrees with the in-process answer.
func (e expectedAdmit) matches(r qosd.AdmitResponse) bool {
	level := 0
	if r.IsolationRemedy != nil {
		level = r.IsolationRemedy.Level
	}
	return r.Tier == e.tier && r.Degradation == e.deg && r.Admitted == e.admitted &&
		r.Reason == e.reason && level == e.remedy
}

// clientLoad is what one client saw during a unit.
type clientLoad struct {
	latencies         []float64
	attempted, failed int
	surrogate, engine int
	rejected, remedy  int
	uploads           []float64 // upload latencies, seconds
}

func (w *qosdWorkload) unit(ctx context.Context) (unitResult, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := len(w.stream) / len(w.clients)
	loads := make([]clientLoad, len(w.clients))
	replies := make([]qosd.AdmitResponse, len(w.stream))
	var wg sync.WaitGroup
	watch := startWatch()
	for c := range w.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loads[c] = w.drive(ctx, c, c*per, per, replies[c*per:(c+1)*per])
		}(c)
	}
	wg.Wait()
	wall, cpu := watch.stop()
	runtime.ReadMemStats(&after)

	u := unitResult{wall: wall, cpu: cpu, work: float64(len(w.stream)), counters: map[string]float64{}}
	var uploads []float64
	for _, l := range loads {
		u.requests = append(u.requests, l.latencies...)
		u.attempted += l.attempted
		u.failed += l.failed
		u.counters["surrogate"] += float64(l.surrogate)
		u.counters["engine"] += float64(l.engine)
		u.counters["rejected"] += float64(l.rejected)
		u.counters["remedy"] += float64(l.remedy)
		uploads = append(uploads, l.uploads...)
	}
	u.counters["admits"] = float64(len(w.stream))
	u.counters["mallocs"] = float64(after.Mallocs - before.Mallocs)
	u.counters["upload_p50_s"] = median(uploads)
	met, err := w.clients[0].Metrics(ctx)
	if err != nil {
		return unitResult{}, fmt.Errorf("qosd metrics: %w", err)
	}
	u.counters["memo_hits"] = float64(met.PredictionCache.Hits)
	u.counters["memo_misses"] = float64(met.PredictionCache.Misses)
	h := sha256.New()
	for _, r := range replies {
		fmt.Fprintf(h, "%s %s %v %s %v\n", r.Victim, r.Aggressor, r.Admitted, r.Reason, r.Degradation)
	}
	u.digest = hex.EncodeToString(h.Sum(nil))
	return u, nil
}

// drive sends the n admits from stream position first on client c and
// checks each reply. Client 0 re-uploads the profiles once per perUpload
// admits of the whole unit; each upload bumps the registry generation and
// so invalidates the memo.
func (w *qosdWorkload) drive(ctx context.Context, c, first, n int, replies []qosd.AdmitResponse) clientLoad {
	var l clientLoad
	client := w.clients[c]
	for j := 0; j < n; j++ {
		if every := w.perUpload / len(w.clients); c == 0 && j%every == every/2 {
			l.attempted++
			uctx, span := trace.Start(ctx, "qosd.upload")
			t0 := time.Now()
			_, err := client.UploadProfiles(uctx, w.set.Characterizations())
			l.uploads = append(l.uploads, time.Since(t0).Seconds())
			span.End()
			if err != nil {
				l.failed++
			}
		}
		i := first + j
		req := w.stream[i]
		actx, span := trace.Start(ctx, "qosd.admit")
		t0 := time.Now()
		resp, err := client.Admit(actx, req)
		l.latencies = append(l.latencies, time.Since(t0).Seconds())
		span.End()
		l.attempted++
		if err != nil || !w.expect[i].matches(resp) {
			l.failed++
			continue
		}
		replies[j] = resp
		if resp.Tier == qosd.TierSurrogate {
			l.surrogate++
		} else {
			l.engine++
		}
		if !resp.Admitted {
			l.rejected++
		}
		if resp.IsolationRemedy != nil {
			l.remedy++
		}
	}
	return l
}

func (w *qosdWorkload) layers(traced []tracedUnit, untraced []unitResult) map[string]float64 {
	m := map[string]float64{}
	sum := map[string]float64{}
	var p50s, uploads []float64
	for _, u := range untraced {
		for k, v := range u.counters {
			sum[k] += v
		}
		p50s = append(p50s, u.p50)
		uploads = append(uploads, u.counters["upload_p50_s"])
	}
	admits := sum["admits"]
	m["qosd.surrogate_share"] = ratio(sum["surrogate"], admits)
	m["qosd.engine_share"] = ratio(sum["engine"], admits)
	m["qosd.reject_share"] = ratio(sum["rejected"], admits)
	m["qosd.remedy_share"] = ratio(sum["remedy"], admits)
	m["qosd.upload_p50_us"] = median(uploads) * 1e6
	m["qosd.allocs_per_req"] = ratio(sum["mallocs"], admits)
	m["qosd.memo_hit_ratio"] = ratio(sum["memo_hits"], sum["memo_hits"]+sum["memo_misses"])

	// The decision layers, timed in-process over the same request stream.
	var full, partial []qosd.AdmitRequest
	for _, req := range w.stream {
		if req.Threads == 0 {
			full = append(full, req)
		} else {
			partial = append(partial, req)
		}
	}
	m["surrogate.predict_ns"] = nsPerCall(len(full), func(i int) float64 {
		p, _ := w.model.PredictSurrogate(w.set, full[i].Victim, full[i].Aggressor)
		return p.Degradation
	})
	m["model.predict_partial_ns"] = nsPerCall(len(partial), func(i int) float64 {
		r := partial[i]
		return w.model.PredictPartial(w.profiles[r.Victim], w.profiles[r.Aggressor], r.Instances, r.Threads)
	})
	m["qosd.evaluate_ns"] = nsPerCall(len(w.stream), func(i int) float64 {
		e := w.expect[i]
		dec, _ := w.evaluate(w.stream[i], e.deg, e.bound)
		return dec.Tail
	})
	m["qosd.decision_ns"] = nsPerCall(len(w.stream), func(i int) float64 {
		return w.decide(w.stream[i]).deg
	})
	m["qosd.http_us"] = median(p50s)*1e6 - m["qosd.decision_ns"]/1e3
	return m
}

// sink keeps timed calls' results alive.
var sink float64

// nsPerCall times f over indices [0, n) in repeated passes until at least
// 50 ms have elapsed and returns the mean nanoseconds per call.
func nsPerCall(n int, f func(i int) float64) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for i := 0; i < n; i++ {
			sink += f(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

func (w *qosdWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
		<-w.served
	}
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
}
