package qosd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/obs/metrics"
	"repro/internal/obs/trace"
	"repro/internal/queueing"
	"repro/internal/service"
	"repro/internal/simcache"
	"repro/internal/stats"
	"repro/smite"
)

// maxBodyBytes bounds request bodies; profile uploads are the largest
// legitimate payload and stay far below this.
const maxBodyBytes = 8 << 20

// latencyWindow is the sliding-window size of the request-latency metric.
const latencyWindow = 1024

// Config tunes the server's production plumbing. The zero value picks
// sensible defaults.
type Config struct {
	// MaxInFlight bounds concurrently-served requests; excess requests
	// queue until a slot frees or their timeout fires (then 429).
	// Defaults to 64.
	MaxInFlight int
	// RequestTimeout bounds each request end to end, including queueing
	// for a concurrency slot. Defaults to 5s.
	RequestTimeout time.Duration
	// Logger receives one structured line per request. Nil disables
	// request logging.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// System, when set, enables POST /v1/characterize: the daemon
	// simulates the Ruler sweep in-process under the request's context,
	// so the per-request timeout genuinely cancels in-flight simulation.
	// Nil disables the endpoint (501).
	System *smite.System
	// EnableTrace enables per-request span tracing: a request carrying
	// ?trace=1 is traced end to end and the rendered Chrome trace is kept
	// for GET /debug/trace/last (which is only mounted when this is set).
	// Off by default; tracing one request costs one Tracer allocation and
	// a JSON render.
	EnableTrace bool
	// Surrogate, when set, enables the microsecond surrogate tier: a
	// full-occupancy prediction whose victim and aggressor both have
	// fitted models is answered from the closed-form curves — with its
	// error bound in the response — whenever that bound stays within
	// SurrogateThreshold. Everything else falls back to the engine tier
	// (registry profiles). The set must not be mutated after NewServer.
	Surrogate *smite.Surrogate
	// SurrogateThreshold is the largest surrogate error bound the daemon
	// will serve: an answer whose bound is exactly the threshold is still
	// served from the surrogate tier, one strictly above it falls back to
	// the engine tier. 0 means DefaultSurrogateThreshold; a negative value
	// disables the surrogate tier outright (no bound is below it).
	SurrogateThreshold float64
	// SLO, when set, enables POST /v1/admit: predictive admission control
	// against per-class tail-latency budgets (DESIGN.md §13). Nil leaves
	// the endpoint mounted but answering 501 slo_disabled.
	SLO *SLOConfig
}

// DefaultSurrogateThreshold is the default accuracy budget of the
// surrogate tier: bounds above five degradation points fall back to the
// engine tier.
const DefaultSurrogateThreshold = 0.05

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	// Only the zero value means "default": an explicitly negative
	// threshold is a request to disable the surrogate tier (no error bound
	// is ever negative), not a mistake to paper over.
	if c.SurrogateThreshold == 0 {
		c.SurrogateThreshold = DefaultSurrogateThreshold
	}
	if c.SLO != nil {
		slo := c.SLO.withDefaults()
		c.SLO = &slo
	}
	return c
}

// Server serves placement decisions from a Registry over HTTP/JSON.
// Construct with NewServer and mount Handler on an http.Server.
type Server struct {
	cfg      Config
	reg      *Registry
	mux      *http.ServeMux
	inflight chan struct{}
	// memo collapses repeated identical predictions (a scheduler asks the
	// same pair many times as machines churn). Keys include the registry
	// generation, so uploads invalidate it wholesale.
	memo    *simcache.Cache[float64]
	metrics *serverMetrics

	// slo is the saturation analyzer behind /v1/admit; nil when the
	// daemon runs without an SLO config.
	slo *sloAnalyzer

	// lastTrace holds the Chrome-trace render of the most recent ?trace=1
	// request, served by /debug/trace/last.
	traceMu   sync.Mutex
	lastTrace []byte
}

// NewServer builds a Server over the registry.
func NewServer(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		mux:      http.NewServeMux(),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		memo:     simcache.New[float64](),
		metrics:  newServerMetrics(),
	}
	if cfg.SLO != nil {
		s.slo = newSLOAnalyzer(*cfg.SLO)
	}
	s.mux.HandleFunc("/healthz", s.method(http.MethodGet, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.method(http.MethodGet, s.handleMetrics))
	s.mux.HandleFunc("/v1/predict", s.method(http.MethodPost, s.handlePredict))
	s.mux.HandleFunc("/v1/colocate", s.method(http.MethodPost, s.handleColocate))
	s.mux.HandleFunc("/v1/admit", s.method(http.MethodPost, s.handleAdmit))
	s.mux.HandleFunc("/v1/batch", s.method(http.MethodPost, s.handleBatch))
	s.mux.HandleFunc("/v1/profiles", s.method(http.MethodPost, s.handleProfiles))
	s.mux.HandleFunc("/v1/characterize", s.method(http.MethodPost, s.handleCharacterize))
	if cfg.EnableTrace {
		s.mux.HandleFunc("/debug/trace/last", s.method(http.MethodGet, s.handleTraceLast))
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &APIError{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: fmt.Sprintf("no route %s", r.URL.Path)})
	})
	s.registerGauges()
	return s
}

// registerGauges exposes the state the JSON /metrics endpoint reports from
// its owners as exposition-time callbacks, so the OpenMetrics view carries
// the same facts without a second bookkeeping path.
func (s *Server) registerGauges() {
	reg, m := s.metrics.reg, s.metrics
	reg.GaugeFunc("qosd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return m.now().Sub(m.start).Seconds() })
	reg.GaugeFunc("qosd_profiles", "Characterization profiles loaded in the registry.",
		func() float64 { return float64(s.reg.Len()) })
	reg.GaugeFunc("qosd_model_loaded", "1 when a prediction model is loaded, else 0.",
		func() float64 {
			if _, ok := s.reg.Model(); ok {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("qosd_prediction_cache_hits", "Prediction memo hits since start.",
		func() float64 { return float64(s.memo.Stats().Hits) })
	reg.GaugeFunc("qosd_prediction_cache_misses", "Prediction memo misses since start.",
		func() float64 { return float64(s.memo.Stats().Misses) })
	reg.GaugeFunc("qosd_prediction_cache_entries", "Prediction memo entries stored.",
		func() float64 { return float64(s.memo.Stats().Entries) })
	reg.GaugeFunc("qosd_inflight_requests", "Requests currently holding a concurrency slot.",
		func() float64 { return float64(len(s.inflight)) })
	reg.GaugeFunc("qosd_max_inflight", "Configured concurrency limit.",
		func() float64 { return float64(s.cfg.MaxInFlight) })
	// SLO gauges only exist on daemons running the admission gate, so
	// the OpenMetrics exposition of an SLO-less daemon is unchanged.
	if s.slo != nil {
		m.admits = reg.CounterVec("qosd_admit_decisions",
			"SLO admission decisions, by class and outcome.", "class", "outcome")
		reg.GaugeFunc("qosd_slo_rejection_rate",
			"Windowed fraction of rejected admissions.",
			func() float64 { rate, _ := s.slo.rejectionRate(); return rate })
		reg.GaugeFunc("qosd_slo_signal",
			"Saturation signal: 1 scale-up, 0 steady, -1 scale-down.",
			func() float64 {
				rate, _ := s.slo.rejectionRate()
				switch admit.SaturationSignal(rate, s.cfg.SLO.ScaleUpThreshold, s.cfg.SLO.ScaleDownThreshold) {
				case admit.SignalScaleUp:
					return 1
				case admit.SignalScaleDown:
					return -1
				}
				return 0
			})
	}
}

// Registry returns the server's registry (for in-process loading).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the full middleware stack: instrumentation (logging +
// metrics) around the per-request timeout around the concurrency gate
// around the routes.
func (s *Server) Handler() http.Handler {
	h := http.Handler(s.mux)
	h = s.limitConcurrency(h)
	h = s.withTimeout(h)
	h = s.instrument(h)
	return h
}

// method gates a route on one HTTP method, answering anything else with
// the typed 405 envelope (the stdlib mux would answer in plain text).
func (s *Server) method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			writeError(w, &APIError{Status: http.StatusMethodNotAllowed, Code: CodeMethodNotAllowed,
				Message: fmt.Sprintf("%s requires %s", r.URL.Path, want)})
			return
		}
		h(w, r)
	}
}

// withTimeout bounds every request with the configured deadline. Handlers
// are cheap; the deadline's real job is bounding time queued at the
// concurrency gate.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// limitConcurrency admits at most MaxInFlight requests at once. A request
// that cannot get a slot before its deadline is answered 429 so a loaded
// daemon degrades by shedding, not by queue collapse.
func (s *Server) limitConcurrency(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			next.ServeHTTP(w, r)
		case <-r.Context().Done():
			writeError(w, &APIError{Status: http.StatusTooManyRequests, Code: CodeOverloaded,
				Message: fmt.Sprintf("no capacity within %v (%d in flight)", s.cfg.RequestTimeout, s.cfg.MaxInFlight)})
		}
	})
}

// instrument records metrics, optionally traces the request, and emits one
// structured log line per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.metrics.now()
		rec := &statusRecorder{ResponseWriter: w}
		if s.cfg.EnableTrace && r.URL.Query().Get("trace") == "1" {
			s.serveTraced(rec, r, next)
		} else {
			next.ServeHTTP(rec, r)
		}
		elapsed := s.metrics.now().Sub(start)
		route := routeLabel(r)
		s.metrics.record(route, rec.code(), elapsed)
		if s.cfg.Logger != nil {
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.code()),
				slog.Duration("duration", elapsed),
				slog.String("remote", r.RemoteAddr),
			)
		}
	})
}

// serveTraced runs one request under a fresh tracer and keeps the rendered
// Chrome trace for /debug/trace/last. Each traced request replaces the
// previous render; tracing is per-request opt-in, so the steady-state cost
// of an enabled-but-untraced server is one query-parameter check.
func (s *Server) serveTraced(rec *statusRecorder, r *http.Request, next http.Handler) {
	tr := trace.New()
	ctx, root := trace.Start(trace.NewContext(r.Context(), tr), routeLabel(r),
		trace.String("remote", r.RemoteAddr))
	next.ServeHTTP(rec, r.WithContext(ctx))
	root.SetAttr(trace.Int("status", rec.code()))
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err == nil {
		s.traceMu.Lock()
		s.lastTrace = buf.Bytes()
		s.traceMu.Unlock()
	}
}

// routeLabel buckets a request for metrics: known routes individually,
// pprof and everything else in catch-all buckets.
func routeLabel(r *http.Request) string {
	switch r.URL.Path {
	case "/healthz", "/metrics", "/v1/predict", "/v1/colocate", "/v1/admit", "/v1/batch", "/v1/profiles", "/v1/characterize", "/debug/trace/last":
		return r.Method + " " + r.URL.Path
	}
	if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
		return "pprof"
	}
	return "other"
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) code() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

// latencyBounds buckets request durations (milliseconds) for the
// OpenMetrics histogram. The JSON percentiles come from the sliding window
// instead, which the fixed bounds cannot reproduce.
var latencyBounds = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// serverMetrics is the serving-layer view over the obs/metrics registry:
// request counts live in a (route, class)-labelled counter family, request
// durations in both a fixed-bound histogram (for exposition) and a
// stats.Window (for the JSON percentile report the v1 API promises).
//
// now is the clock; tests inject a fake for deterministic durations and
// uptime. It is read without synchronization, so replace it before the
// server handles traffic.
type serverMetrics struct {
	now   func() time.Time
	start time.Time

	reg      *metrics.Registry
	requests *metrics.CounterVec
	latency  *metrics.Histogram
	// admits counts SLO admission decisions by (class, outcome); nil on
	// daemons without the admission gate.
	admits *metrics.CounterVec

	mu     sync.Mutex
	window *stats.Window
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	return &serverMetrics{
		now:   time.Now,
		start: time.Now(),
		reg:   reg,
		requests: reg.CounterVec("qosd_requests",
			"Requests served, by route and status class.", "route", "class"),
		latency: reg.Histogram("qosd_request_duration_ms",
			"End-to-end request duration in milliseconds.", latencyBounds),
		window: stats.NewWindow(latencyWindow),
	}
}

// statusClass buckets an HTTP status the way the v1 JSON metrics report
// does: 2xx, 4xx, 5xx, and "other" for everything else (1xx, 3xx).
func statusClass(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "2xx"
	case status >= 400 && status < 500:
		return "4xx"
	case status >= 500 && status < 600:
		return "5xx"
	default:
		return "other"
	}
}

func (m *serverMetrics) record(route string, status int, d time.Duration) {
	m.requests.With(route, statusClass(status)).Inc()
	ms := float64(d) / float64(time.Millisecond)
	m.latency.Observe(ms)
	m.mu.Lock()
	m.window.Add(ms)
	m.mu.Unlock()
}

// snapshot folds the labelled counters back into the per-route structs the
// v1 JSON metrics response has always exposed, so migrating the storage
// onto the registry is invisible on the wire.
func (m *serverMetrics) snapshot() (map[string]RouteMetrics, LatencyMetrics, float64) {
	routes := make(map[string]RouteMetrics)
	for _, lc := range m.requests.Snapshot() {
		route, class := lc.Labels[0], lc.Labels[1]
		rm := routes[route]
		rm.Total += lc.Count
		switch class {
		case "2xx":
			rm.Status2xx += lc.Count
		case "4xx":
			rm.Status4xx += lc.Count
		case "5xx":
			rm.Status5xx += lc.Count
		default:
			rm.StatusElse += lc.Count
		}
		routes[route] = rm
	}
	m.mu.Lock()
	lat := LatencyMetrics{
		Window: m.window.Len(),
		P50:    m.window.Percentile(0.50),
		P90:    m.window.Percentile(0.90),
		P99:    m.window.Percentile(0.99),
		Max:    m.window.Max(),
	}
	m.mu.Unlock()
	return routes, lat, m.now().Sub(m.start).Seconds()
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	_, hasModel := s.reg.Model()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		Profiles:    s.reg.Len(),
		ModelLoaded: hasModel,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// OpenMetrics text on request (scrapers); the JSON report stays the
	// default for the v1 API's existing consumers.
	if r.URL.Query().Get("format") == "openmetrics" ||
		strings.Contains(r.Header.Get("Accept"), "openmetrics") {
		w.Header().Set("Content-Type", metrics.ContentType)
		_ = s.metrics.reg.WriteOpenMetrics(w)
		return
	}
	routes, lat, uptime := s.metrics.snapshot()
	cs := s.memo.Stats()
	_, hasModel := s.reg.Model()
	var sloReport *SLOMetricsReport
	if s.slo != nil {
		sloReport = s.slo.report()
	}
	writeJSON(w, http.StatusOK, MetricsResponse{
		UptimeSeconds: uptime,
		Requests:      routes,
		Latency:       lat,
		Profiles:      s.reg.Len(),
		ModelLoaded:   hasModel,
		PredictionCache: CacheMetrics{
			Hits:    cs.Hits,
			Misses:  cs.Misses,
			Entries: cs.Entries,
		},
		MaxInFlight: s.cfg.MaxInFlight,
		SLO:         sloReport,
	})
}

func (s *Server) handleTraceLast(w http.ResponseWriter, _ *http.Request) {
	s.traceMu.Lock()
	b := s.lastTrace
	s.traceMu.Unlock()
	if b == nil {
		writeError(w, &APIError{Status: http.StatusNotFound, Code: CodeNotFound,
			Message: "no traced request yet (send one with ?trace=1)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if apiErr := decodeJSON(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	pred, apiErr := s.predict(r.Context(), req.Victim, req.Aggressor, req.Instances, req.Threads)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{
		Victim:      req.Victim,
		Aggressor:   req.Aggressor,
		Degradation: pred.deg,
		Tier:        pred.tier,
		ErrorBound:  pred.bound,
		Generation:  pred.gen,
	})
}

func (s *Server) handleColocate(w http.ResponseWriter, r *http.Request) {
	var req ColocateRequest
	if apiErr := decodeJSON(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if req.QoSTarget <= 0 || req.QoSTarget > 1 {
		writeError(w, invalidArgument("qos_target %g outside (0,1]", req.QoSTarget))
		return
	}
	var p float64
	if req.Queue != nil {
		q := req.Queue
		if q.Mu <= 0 || q.Lambda <= 0 {
			writeError(w, invalidArgument("queue rates must be positive (mu=%g, lambda=%g)", q.Mu, q.Lambda))
			return
		}
		p = q.Percentile
		if p == 0 {
			p = 0.90
		}
		if p <= 0 || p >= 1 {
			writeError(w, invalidArgument("queue percentile %g outside (0,1)", q.Percentile))
			return
		}
	}
	pred, apiErr := s.predict(r.Context(), req.Victim, req.Aggressor, req.Instances, req.Threads)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	deg := pred.deg
	// Same comparison as Model.SafeColocation, on the (possibly partial)
	// predicted degradation.
	resp := ColocateResponse{
		Victim:      req.Victim,
		Aggressor:   req.Aggressor,
		Degradation: deg,
		QoS:         service.AvgQoS(deg),
		Safe:        1-deg >= req.QoSTarget,
	}
	if req.Queue != nil {
		t := queueing.DegradedPercentile(p, req.Queue.Mu, req.Queue.Lambda, deg)
		if math.IsInf(t, 1) {
			// The degradation pushed the queue past stability; the closed
			// form saturates to +Inf, which JSON cannot carry.
			resp.Saturated = true
		} else {
			resp.TailLatency = &t
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdmit is the predictive SLO admission gate: predict the pair's
// degradation through the tiered predictor, inflate it by the surrogate
// error bound when the surrogate tier answered, and admit only if the
// Eq. 6 tail estimate at the class percentile fits the class budget
// minus the configured headroom. Every decision feeds the saturation
// analyzer.
func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	var req AdmitRequest
	if apiErr := decodeJSON(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if s.cfg.SLO == nil {
		writeError(w, &APIError{Status: http.StatusNotImplemented, Code: CodeSLODisabled,
			Message: "daemon started without SLO classes (run smited with -slo-config)"})
		return
	}
	if req.Class == "" {
		writeError(w, invalidArgument("class must be set"))
		return
	}
	class, ok := s.cfg.SLO.Class(req.Class)
	if !ok {
		writeError(w, &APIError{Status: http.StatusNotFound, Code: CodeUnknownClass,
			Message: fmt.Sprintf("no SLO class %q configured", req.Class)})
		return
	}
	if req.Queue.Mu <= 0 || req.Queue.Lambda <= 0 {
		writeError(w, invalidArgument("queue rates must be positive (mu=%g, lambda=%g)", req.Queue.Mu, req.Queue.Lambda))
		return
	}
	if req.Queue.Percentile != 0 {
		writeError(w, invalidArgument("queue percentile is fixed by the SLO class (%q uses %g); leave it unset",
			class.Name, class.Percentile))
		return
	}
	pred, apiErr := s.predict(r.Context(), req.Victim, req.Aggressor, req.Instances, req.Threads)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	dec := admit.Evaluate(pred.deg, pred.bound, req.Queue.Mu, req.Queue.Lambda, class, s.cfg.SLO.Headroom)
	s.slo.record(class.Name, dec.Admitted)
	if s.metrics.admits != nil {
		outcome := "admitted"
		if !dec.Admitted {
			outcome = "rejected"
		}
		s.metrics.admits.With(class.Name, outcome).Inc()
	}
	resp := AdmitResponse{
		Victim:               req.Victim,
		Aggressor:            req.Aggressor,
		Class:                class.Name,
		Admitted:             dec.Admitted,
		Reason:               dec.Reason,
		Degradation:          pred.deg,
		EffectiveDegradation: dec.EffectiveDegradation,
		Tier:                 pred.tier,
		ErrorBound:           pred.bound,
		Generation:           pred.gen,
		Budget:               class.Budget,
		EffectiveBudget:      dec.EffectiveBudget,
		Percentile:           class.Percentile,
		Headroom:             s.cfg.SLO.Headroom,
	}
	if dec.Saturated {
		// +Inf cannot travel as JSON; the flag carries the fact.
		resp.Saturated = true
	} else {
		t := dec.Tail
		resp.TailLatency = &t
	}
	if !dec.Admitted {
		resp.IsolationRemedy = SuggestIsolation(pred.deg, pred.bound,
			req.Queue.Mu, req.Queue.Lambda, class, s.cfg.SLO.Headroom, nil)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if apiErr := decodeJSON(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if req.QoSTarget < 0 || req.QoSTarget > 1 {
		writeError(w, invalidArgument("qos_target %g outside [0,1]", req.QoSTarget))
		return
	}
	resp := BatchResponse{Victim: req.Victim, Results: make([]BatchResult, 0, len(req.Candidates))}
	for i, c := range req.Candidates {
		pred, apiErr := s.predict(r.Context(), req.Victim, c.Aggressor, c.Instances, req.Threads)
		if apiErr != nil {
			apiErr.Message = fmt.Sprintf("candidate %d: %s", i, apiErr.Message)
			writeError(w, apiErr)
			return
		}
		deg := pred.deg
		res := BatchResult{Aggressor: c.Aggressor, Instances: c.Instances, Degradation: deg}
		if req.QoSTarget > 0 {
			safe := 1-deg >= req.QoSTarget
			res.Safe = &safe
		}
		resp.Results = append(resp.Results, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	added, err := s.reg.LoadProfiles(r.Body)
	if err != nil {
		writeError(w, uploadError(err))
		return
	}
	writeJSON(w, http.StatusOK, ProfilesResponse{Added: added, Total: s.reg.Len()})
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	var req CharacterizeRequest
	if apiErr := decodeJSON(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if s.cfg.System == nil {
		writeError(w, &APIError{Status: http.StatusNotImplemented, Code: CodeSimulationDisabled,
			Message: "daemon started without a simulation system (run smited with -simulate)"})
		return
	}
	var placement smite.Placement
	switch strings.ToLower(req.Placement) {
	case "", "smt":
		placement = smite.SMT
	case "cmp":
		placement = smite.CMP
	default:
		writeError(w, invalidArgument("placement %q is not smt or cmp", req.Placement))
		return
	}
	spec, err := smite.WorkloadByName(req.App)
	if err != nil {
		writeError(w, &APIError{Status: http.StatusNotFound, Code: CodeUnknownProfile,
			Message: err.Error()})
		return
	}
	char, err := s.cfg.System.CharacterizeContext(r.Context(), spec, placement)
	if err != nil {
		if apiErr := ctxError(err); apiErr != nil {
			writeError(w, apiErr)
			return
		}
		writeError(w, &APIError{Status: http.StatusInternalServerError, Code: "internal",
			Message: err.Error()})
		return
	}
	resp := CharacterizeResponse{App: req.App, Placement: placement.String(), Profile: char}
	if req.Register {
		s.reg.AddProfiles([]smite.Characterization{char})
		resp.Registered = true
		resp.Total = s.reg.Len()
	}
	writeJSON(w, http.StatusOK, resp)
}

// prediction is the result of the shared prediction core: the degradation
// plus which tier produced it (and the certificate bound on surrogate
// answers). Only /v1/predict exposes the tier on the wire; colocate and
// batch use the degradation alone.
type prediction struct {
	deg   float64
	tier  string
	bound float64
	// gen is the registry generation the answer was computed under. A
	// closed-loop controller compares it across calls to tell whether a
	// re-characterization (profile upload, model swap) landed between two
	// predictions for the same pair.
	gen uint64
}

// predict is the shared prediction core. It tries the surrogate tier
// first: a full-occupancy pair whose victim and aggressor both have
// fitted curves is answered from the closed forms when the propagated
// error bound stays within the configured threshold — microseconds, no
// memo needed. Everything else (partial occupancy, apps without fitted
// models, bounds over threshold) takes the engine tier: resolve profiles
// and model under one registry snapshot, validate the partial-occupancy
// arguments, and memoize by (generation, pair, occupancy). The context
// bounds the memo wait: a request whose deadline fires while another
// request computes the same key stops waiting instead of burning its
// remaining budget.
func (s *Server) predict(ctx context.Context, victim, aggressor string, instances, threads int) (prediction, *APIError) {
	if victim == "" {
		return prediction{}, invalidArgument("victim must be set")
	}
	if aggressor == "" {
		return prediction{}, invalidArgument("aggressor must be set")
	}
	if threads < 0 || instances < 0 {
		return prediction{}, invalidArgument("instances (%d) and threads (%d) must be non-negative", instances, threads)
	}
	if threads == 0 && instances > 0 {
		return prediction{}, invalidArgument("instances (%d) set without threads", instances)
	}
	if threads > 0 && (instances < 1 || instances > threads) {
		return prediction{}, invalidArgument("instances (%d) outside [1, threads=%d]", instances, threads)
	}
	ctx, span := trace.Start(ctx, "qosd.predict",
		trace.String("victim", victim), trace.String("aggressor", aggressor))
	defer span.End()
	if set := s.cfg.Surrogate; set != nil && threads == 0 {
		// The surrogate curves encode the full-occupancy characterization
		// only, so partial-occupancy requests always take the engine tier.
		if m, gen, ok := s.reg.modelGen(); ok {
			if pred, err := m.PredictSurrogate(set, victim, aggressor); err == nil && pred.Bound <= s.cfg.SurrogateThreshold {
				span.SetAttr(trace.String("tier", TierSurrogate))
				return prediction{deg: sanitizeDeg(pred.Degradation), tier: TierSurrogate, bound: pred.Bound, gen: gen}, nil
			}
		}
	}
	v, a, m, gen, apiErr := s.reg.snapshot(victim, aggressor)
	if apiErr != nil {
		return prediction{}, apiErr
	}
	key := simcache.KeyOf("qosd/predict/v2", gen, victim, aggressor, instances, threads)
	deg, _, err := s.memo.DoContext(ctx, key, func(context.Context) (float64, error) {
		// threads == 0 degenerates to the plain Equation 3 pair prediction.
		return m.PredictPartial(v, a, instances, threads), nil
	})
	if err != nil {
		if apiErr := ctxError(err); apiErr != nil {
			return prediction{}, apiErr
		}
		// The compute function cannot fail; kept for the Do contract.
		return prediction{}, &APIError{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
	}
	return prediction{deg: sanitizeDeg(deg), tier: TierEngine, gen: gen}, nil
}

// sanitizeDeg clamps a non-finite predicted degradation to 1 (complete
// degradation). A NaN or ±Inf can only come from corrupt profile
// features; JSON cannot carry it, and before this guard it aborted the
// response encoder mid-reply (the client saw an EOF instead of an
// answer). Every consumer treats deg >= 1 as a saturated, never-safe
// co-location, which is the conservative reading of a garbage profile.
func sanitizeDeg(deg float64) float64 {
	if math.IsNaN(deg) || math.IsInf(deg, 0) {
		return 1
	}
	return deg
}

// ---- helpers ----

// ctxError maps a context cancellation onto the 504 envelope, or nil if
// the error is not a cancellation. Both deadline expiry and client
// disconnects land here; either way the simulation work was stopped.
func ctxError(err error) *APIError {
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		return nil
	}
	return &APIError{Status: http.StatusGatewayTimeout, Code: CodeDeadlineExceeded,
		Message: fmt.Sprintf("request cancelled while computing: %v", err)}
}

func invalidArgument(format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: CodeInvalidArgument,
		Message: fmt.Sprintf(format, args...)}
}

// uploadError maps a profile-load failure onto the 422 envelope. All of
// smite's typed load errors (ErrCorrupt, ErrVersionSkew,
// ErrDimensionMismatch) land here, as do transport-level truncations;
// the message keeps the specific class visible to the caller.
func uploadError(err error) *APIError {
	return &APIError{Status: http.StatusUnprocessableEntity, Code: CodeUnprocessable,
		Message: err.Error()}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) *APIError {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		return &APIError{Status: http.StatusBadRequest, Code: CodeBadJSON,
			Message: fmt.Sprintf("decoding request body: %v", err)}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection is the only failure mode here
}

func writeError(w http.ResponseWriter, e *APIError) {
	writeJSON(w, e.Status, errorEnvelope{Error: e})
}
