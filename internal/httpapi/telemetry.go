package httpapi

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// HTTP-layer telemetry: per-route traffic, latency and size, plus the
// plane-wide in-flight gauge and gzip byte counters. Route labels are the
// registered mux patterns (bounded cardinality — never raw URLs).
var (
	telHTTPRequests = telemetry.Default().CounterVec("flower_http_requests_total",
		"HTTP requests served, by route pattern, method and status code.",
		"route", "method", "code")
	telHTTPSeconds = telemetry.Default().HistogramVec("flower_http_request_seconds",
		"HTTP request latency, by route pattern.", nil, "route")
	telHTTPBytes = telemetry.Default().CounterVec("flower_http_response_bytes_total",
		"Response body bytes written on the wire (after compression), by route pattern.",
		"route")
	telHTTPInFlight = telemetry.Default().Gauge("flower_http_in_flight",
		"HTTP requests being served right now.")
	telGzipUncompressed = telemetry.Default().Counter("flower_http_gzip_uncompressed_bytes_total",
		"Body bytes handlers wrote into gzip-compressed responses, pre-compression.")
	telGzipCompressed = telemetry.Default().Counter("flower_http_gzip_compressed_bytes_total",
		"Body bytes gzip-compressed responses put on the wire. Compare with the uncompressed counter for the plane's achieved compression ratio.")
)

// requestSeq numbers requests for the X-Request-ID header and the request
// log; process-scoped and monotonic, so an ID names one request uniquely
// within a daemon run.
var requestSeq atomic.Uint64

// requestID returns the caller-provided X-Request-ID, or mints the next
// process-unique one.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 128 {
		return id
	}
	return "r" + strconv.FormatUint(requestSeq.Add(1), 10)
}

// routeLabel converts the matched mux pattern into the bounded route label
// ("/v1/flows/{id}/metrics"). Unmatched requests (404s, bad methods)
// collapse into one bucket so junk URLs cannot explode cardinality.
func routeLabel(r *http.Request) string {
	p := r.Pattern
	if p == "" {
		return "unmatched"
	}
	if i := strings.IndexByte(p, ' '); i >= 0 {
		p = p[i+1:]
	}
	return p
}

// handleTelemetry serves GET /v1/telemetry: the full self-metrics snapshot
// as JSON (default) or Prometheus text exposition when the client asks for
// text/plain (or ?format=prom).
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	snap := telemetry.Default().Snapshot()
	if wantProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = snap.WriteProm(w) // status line is out; nothing to recover
		return
	}
	writeJSON(w, http.StatusOK, telemetryJSON(snap))
}

// wantProm negotiates the exposition format: explicit ?format wins, then
// an Accept header that prefers text/plain over JSON.
func wantProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
}

// telemetryJSON converts a registry snapshot to wire form.
func telemetryJSON(snap telemetry.Snapshot) apiv1.Telemetry {
	out := apiv1.Telemetry{At: snap.At, Families: make([]apiv1.MetricFamily, 0, len(snap.Families))}
	for _, f := range snap.Families {
		wf := apiv1.MetricFamily{
			Name:    f.Name,
			Help:    f.Help,
			Kind:    f.Kind.String(),
			Labels:  f.Labels,
			Metrics: make([]apiv1.Metric, 0, len(f.Metrics)),
		}
		for _, m := range f.Metrics {
			wm := apiv1.Metric{LabelValues: m.LabelValues, Value: m.Value}
			if m.Histogram != nil {
				wm.Histogram = histogramJSON(m.Histogram)
			}
			wf.Metrics = append(wf.Metrics, wm)
		}
		out.Families = append(out.Families, wf)
	}
	return out
}

// histogramJSON renders a telemetry histogram in wire form: the
// /v1/telemetry families and the /v1/scheduler per-shard rows alike.
func histogramJSON(h *telemetry.HistogramSnapshot) *apiv1.LatencyHistogram {
	out := &apiv1.LatencyHistogram{
		BoundsUS: make([]int64, 0, len(h.Bounds)),
		Counts:   append([]uint64(nil), h.Counts...),
		Count:    h.Count,
		MaxUS:    float64(h.MaxNanos) / 1e3,
	}
	for _, b := range h.Bounds {
		out.BoundsUS = append(out.BoundsUS, b.Microseconds())
	}
	if h.Count > 0 {
		out.MeanUS = float64(h.SumNanos) / 1e3 / float64(h.Count)
	}
	return out
}

// handleTelemetryTrace serves GET /v1/telemetry/trace: the sampled tick
// traces, newest first.
func (s *Server) handleTelemetryTrace(w http.ResponseWriter, r *http.Request) {
	snaps := telemetry.Traces.Snapshot()
	out := apiv1.TraceLog{
		SampleEvery: telemetry.Traces.Every(),
		Traces:      make([]apiv1.TickTrace, 0, len(snaps)),
	}
	for _, t := range snaps {
		wt := apiv1.TickTrace{
			ID:          t.ID,
			FlowID:      t.FlowID,
			At:          t.At,
			EventSeq:    t.EventSeq,
			Stages:      make([]apiv1.TraceStage, 0, len(t.Stages)),
			AppendCount: t.AppendCount,
			TotalNanos:  t.TotalNanos,
			Delivered:   t.Delivered,
		}
		for _, st := range t.Stages {
			wt.Stages = append(wt.Stages, apiv1.TraceStage{Name: st.Name, Nanos: st.Nanos})
		}
		out.Traces = append(out.Traces, wt)
	}
	writeJSON(w, http.StatusOK, out)
}

// --- self-scrape ---

// SelfScrapeFlow is the reserved flow id the self-scrape mode publishes
// flowerd's own telemetry into. The flow is created by the server, never
// advanced or paced, and its metric store carries the plane's self-metrics
// under metricstore.SelfScrapeNamespace — so the forecasting and
// regression machinery can watch the control plane exactly the way it
// watches any workload. Do not create or delete a flow with this id.
const SelfScrapeFlow = "plane.self"

// StartSelfScrape creates the reserved flow and registers the periodic
// scrape job on the registry's scheduler — the self-scrape is itself a
// citizen of the execution plane it observes. Idempotent: a second call
// while a scrape is active is a no-op.
func (s *Server) StartSelfScrape(interval time.Duration) error {
	if s.selfScrape != nil {
		return nil
	}
	if _, ok := s.reg.Get(SelfScrapeFlow); !ok {
		spec, err := flow.DefaultClickstream(2000)
		if err != nil {
			return fmt.Errorf("self-scrape: build reserved flow spec: %v", err)
		}
		spec.Name = SelfScrapeFlow
		if _, err := s.reg.Create(SelfScrapeFlow, spec, sim.Options{}); err != nil {
			return fmt.Errorf("self-scrape: create reserved flow: %v", err)
		}
	}
	ticket, err := s.reg.Scheduler().Periodic("telemetry/self-scrape", sched.ClassFlow, interval,
		func(n int) error { s.scrapeOnce(); return nil }, nil)
	if err != nil {
		return fmt.Errorf("self-scrape: schedule: %v", err)
	}
	s.selfScrape = ticket
	return nil
}

// scrapeOnce ingests one telemetry snapshot into the reserved flow's
// metric store.
func (s *Server) scrapeOnce() {
	f, ok := s.reg.Get(SelfScrapeFlow)
	if !ok {
		return // reserved flow deleted out from under us; skip, don't crash
	}
	snap := telemetry.Default().Snapshot()
	f.View(func(m *core.Manager) {
		if err := metricstore.IngestSnapshot(m.Store(), snap); err != nil && s.logger != nil {
			s.logger.Printf("self-scrape: %v", err)
		}
	})
}

// StopSelfScrape halts the periodic scrape and takes one final snapshot,
// so the last ingested datapoints include everything counted up to the
// moment of the call. Call it after the HTTP listener has drained and
// before closing the registry: the final scrape then reflects the complete
// request history. No-op when self-scrape was never started; idempotent.
func (s *Server) StopSelfScrape() {
	t := s.selfScrape
	if t == nil {
		return
	}
	s.selfScrape = nil
	t.Stop()
	s.scrapeOnce()
}
