// Package httpapi is Flower's HTTP control plane: the programmatic
// equivalent of the demo's web UI (§4), redesigned as a multi-tenant,
// versioned v1 REST API over a flow registry. It serves
//
//   - the /v1/flows collection — create, list, get, delete many
//     independently-managed flows in one process,
//   - per-flow sub-resources: run status, per-layer controller state with
//     runtime tuning ("adjust parameters of the controllers, such as
//     elasticity speed, monitoring period"), the cross-platform metric
//     store behind the all-in-one-place visualizer (§3.4) with paginated
//     queries, learned workload dependencies (§3.1), snapshots, manual
//     advance and wall-clock pacing,
//   - a per-flow HTML dashboard plus an index of all flows,
//   - the /v1/experiments collection — the Scenario Lab (internal/lab):
//     declarative experiment grids fanned out over a bounded worker pool,
//     with progress tracking, cancellation, per-trial summaries and
//     cross-trial aggregates (Pareto fronts, baseline deltas),
//   - GET /v1/scheduler — the unified execution plane (internal/sched):
//     shard count, capacity, queue depths, late/skipped ticks and run
//     latency of the scheduler that paces flows and runs trials.
//
// Every failure is a uniform JSON envelope {"error": {"code", "message"}}
// (apiv1.ErrorEnvelope), and all requests pass through recovery and
// optional request-logging middleware. A flow's simulated clock only moves
// through POST .../advance or its pacer, so a browser can inspect a paused
// flow deterministically — which is also what makes the package testable
// with httptest.
package httpapi

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/lab"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Server exposes a flow registry over HTTP.
type Server struct {
	reg    *registry.Registry
	lab    *lab.Engine // Scenario Lab behind /v1/experiments
	mux    *http.ServeMux
	h      http.Handler // mux wrapped in middleware
	logger *log.Logger  // nil: no request logging

	defaultID string // explicit default flow for the root dashboard (GET /)

	watchHeartbeat time.Duration // watch stream keep-alive interval (0: default)

	pprof bool // expose net/http/pprof under /debug/pprof/
}

// Option configures a Server.
type Option func(*Server)

// WithLogger enables request logging through l.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithDefaultFlow pins the flow whose dashboard GET / serves. Without it,
// the root serves the registry's sole flow, or the flow index when there
// are several.
func WithDefaultFlow(id string) Option {
	return func(s *Server) { s.defaultID = id }
}

// WithWatchHeartbeat overrides the keep-alive interval of the watch
// streams (default 15s); tests shorten it to observe heartbeats.
func WithWatchHeartbeat(d time.Duration) Option {
	return func(s *Server) { s.watchHeartbeat = d }
}

// WithLab substitutes the Scenario Lab engine behind /v1/experiments
// (pool width, test doubles). Without it, the server creates one with
// the default pool width (GOMAXPROCS).
func WithLab(e *lab.Engine) Option {
	return func(s *Server) { s.lab = e }
}

// WithPprof exposes the net/http/pprof profiling handlers under
// /debug/pprof/ on the server's own mux (flowerd -pprof).
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// NewServer wraps a registry.
func NewServer(reg *registry.Registry, opts ...Option) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	if s.lab == nil {
		// Default wiring is the unified execution plane: experiment trials
		// run on the same scheduler as the registry's pacers, so one
		// capacity knob (and one /v1/scheduler view) governs both.
		s.lab = lab.NewEngineOn(reg.Scheduler())
	}
	s.routes()
	s.h = s.withMiddleware(s.mux)
	return s
}

// Close is a no-op: the server holds nothing that outlives a request.
// It is kept because cmd/e2ebench still calls it.
func (s *Server) Close() {}

// Registry returns the registry the server fronts.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Lab returns the Scenario Lab engine the server fronts.
func (s *Server) Lab() *lab.Engine { return s.lab }

func (s *Server) routes() {
	// v1 flow collection.
	s.mux.HandleFunc("POST /v1/flows", s.handleCreateFlow)
	s.mux.HandleFunc("GET /v1/flows", s.handleListFlows)
	s.mux.HandleFunc("GET /v1/flows/{id}", s.flowScoped(s.handleGetFlow))
	s.mux.HandleFunc("DELETE /v1/flows/{id}", s.handleDeleteFlow)

	// v1 flow sub-resources.
	s.mux.HandleFunc("GET /v1/flows/{id}/status", s.flowScoped(s.handleStatus))
	s.mux.HandleFunc("GET /v1/flows/{id}/layers", s.flowScoped(s.handleLayers))
	s.mux.HandleFunc("GET /v1/flows/{id}/layers/{kind}/decisions", s.flowScoped(s.handleDecisions))
	s.mux.HandleFunc("POST /v1/flows/{id}/layers/{kind}/controller", s.flowScoped(s.handleTuneController))
	s.mux.HandleFunc("GET /v1/flows/{id}/metrics", withGzip(s.flowScoped(s.handleListMetrics)))
	s.mux.HandleFunc("GET /v1/flows/{id}/metrics/query", withGzip(s.flowScoped(s.handleQueryMetrics)))
	s.mux.HandleFunc("GET /v1/flows/{id}/snapshot", withGzip(s.flowScoped(s.handleSnapshot)))
	s.mux.HandleFunc("GET /v1/flows/{id}/dependencies", s.flowScoped(s.handleDependencies))
	s.mux.HandleFunc("POST /v1/flows/{id}/advance", s.flowScoped(s.handleAdvance))
	s.mux.HandleFunc("POST /v1/flows/{id}/pace", s.flowScoped(s.handlePace))
	s.mux.HandleFunc("GET /v1/flows/{id}/pace", s.flowScoped(s.handlePaceState))
	s.mux.HandleFunc("GET /v1/flows/{id}/dashboard", s.flowScoped(s.handleDashboard))

	// The streaming read plane: per-flow and per-experiment watch streams,
	// a multiplexed stream over both buses, and the columnar batch query.
	// Watch routes are never gzipped (a compressor would buffer the
	// stream); the batch route is the main gzip beneficiary.
	s.mux.HandleFunc("GET /v1/flows/{id}/watch", s.flowScoped(s.handleWatchFlow))
	s.mux.HandleFunc("GET /v1/experiments/{id}/watch", s.experimentScoped(s.handleWatchExperiment))
	s.mux.HandleFunc("GET /v1/watch", s.handleWatchMux)
	s.mux.HandleFunc("POST /v1/metrics:batchQuery", withGzip(s.handleBatchQuery))

	// The query plane: pipeline queries over every flow's metric store,
	// streamed by internal/query; ?explain=1 returns the plan. Columnar
	// compact JSON, gzip like the batch route.
	s.mux.HandleFunc("POST /v1/query", withGzip(s.handleQuery))

	// The execution plane: live scheduler shape and counters.
	s.mux.HandleFunc("GET /v1/scheduler", s.handleSchedulerStats)

	// The self-telemetry plane: process-wide metrics (JSON or Prometheus
	// text) and the sampled tick traces.
	s.mux.HandleFunc("GET /v1/telemetry", withGzip(s.handleTelemetry))
	s.mux.HandleFunc("GET /v1/telemetry/trace", s.handleTelemetryTrace)

	// Profiling, opt-in via WithPprof. The index route must keep its
	// trailing slash: /debug/pprof/heap etc. dispatch through it.
	if s.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	// v1 experiment collection (the Scenario Lab).
	s.mux.HandleFunc("POST /v1/experiments", s.handleCreateExperiment)
	s.mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.experimentScoped(s.handleGetExperiment))
	s.mux.HandleFunc("POST /v1/experiments/{id}/cancel", s.experimentScoped(s.handleCancelExperiment))
	s.mux.HandleFunc("GET /v1/experiments/{id}/results", withGzip(s.experimentScoped(s.handleExperimentResults)))
	s.mux.HandleFunc("DELETE /v1/experiments/{id}", s.handleDeleteExperiment)

	// Root: the default flow's dashboard, or the flow index when there is
	// no single default.
	s.mux.HandleFunc("GET /{$}", s.handleRoot)
}

// flowHandler is a handler scoped to one resolved flow.
type flowHandler func(w http.ResponseWriter, r *http.Request, f *registry.Flow)

// flowScoped resolves {id} from the path.
func (s *Server) flowScoped(h flowHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		f, ok := s.reg.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, apiv1.CodeNotFound, "no flow %q", id)
			return
		}
		h(w, r, f)
	}
}

// defaultFlow picks the flow GET / renders: the explicitly configured one
// if registered, else the registry's sole flow.
func (s *Server) defaultFlow() (*registry.Flow, bool) {
	if s.defaultID != "" {
		return s.reg.Get(s.defaultID)
	}
	if flows := s.reg.List(); len(flows) == 1 {
		return flows[0], true
	}
	return nil, false
}

// Handler returns the HTTP handler (for httptest and custom servers).
func (s *Server) Handler() http.Handler { return s.h }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.ServeHTTP(w, r)
}

// --- middleware ---

// statusRecorder captures the response status and the body bytes actually
// written on the wire. It is the outermost writer, so for gzip-compressed
// responses bytes counts the compressed payload — the true response size.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so the watch streams can push
// events through the logging middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withMiddleware wraps h in panic recovery, telemetry and optional request
// logging. Recovery is innermost so a panicking handler still yields a
// JSON 500, a log line and an accounted metric instead of a dropped
// connection. Telemetry reads r.Pattern after dispatch: the mux stamps the
// matched route onto the request, giving bounded-cardinality route labels
// without a second routing table.
func (s *Server) withMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		reqID := requestID(r)
		rec.Header().Set("X-Request-ID", reqID)
		telHTTPInFlight.Inc()
		start := telemetry.Now()
		defer func() {
			if p := recover(); p != nil {
				if s.logger != nil {
					s.logger.Printf("panic %s %s [%s]: %v", r.Method, r.URL.Path, reqID, p)
				}
				if rec.status == 0 { // headers not out yet: we can still answer
					writeError(rec, http.StatusInternalServerError, apiv1.CodeInternal, "internal error")
				}
			}
			telHTTPInFlight.Dec()
			elapsed := time.Duration(telemetry.SinceNanos(start))
			route := routeLabel(r)
			if rec.status == 0 { // handler wrote nothing: net/http sends 200
				rec.status = http.StatusOK
			}
			telHTTPRequests.With(route, r.Method, strconv.Itoa(rec.status)).Inc()
			telHTTPSeconds.With(route).Observe(elapsed)
			telHTTPBytes.With(route).Add(uint64(rec.bytes))
			if s.logger != nil {
				s.logger.Printf("%s %s %d %dB %s [%s]", r.Method, r.URL.Path, rec.status, rec.bytes, elapsed.Round(time.Microsecond), reqID)
			}
		}()
		h.ServeHTTP(rec, r)
	})
}

// --- JSON plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// writeJSONCompact is writeJSON without indentation — the bulk wire paths
// (batch queries) are machine-read and size-sensitive.
func writeJSONCompact(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code apiv1.ErrorCode, format string, args ...any) {
	writeJSON(w, status, apiv1.ErrorEnvelope{Error: apiv1.Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
