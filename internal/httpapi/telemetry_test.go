package httpapi

import (
	"compress/gzip"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/telemetry"
)

// telFind returns the family with the given name, or nil.
func telFind(t *testing.T, tel apiv1.Telemetry, name string) *apiv1.MetricFamily {
	t.Helper()
	for i := range tel.Families {
		if tel.Families[i].Name == name {
			return &tel.Families[i]
		}
	}
	return nil
}

// catalogFamilies reads the backticked family names out of the table
// under "The metric catalog" in API.md.
func catalogFamilies(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "The metric catalog")
	if !ok {
		t.Fatal(`API.md has no "The metric catalog" section`)
	}
	names := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		for _, m := range catalogName.FindAllStringSubmatch(line, -1) {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("API.md's metric catalog lists no families")
	}
	return names
}

var catalogName = regexp.MustCompile("`(flower_[a-z0-9_]+)`")

func TestTelemetryJSON(t *testing.T) {
	s, _ := newTestServer(t)
	// Generate some traffic first so the HTTP families have data.
	do(t, s, "GET", "/v1/flows", "", nil)
	do(t, s, "GET", "/v1/flows/clicks/status", "", nil)

	var tel apiv1.Telemetry
	rec := do(t, s, "GET", "/v1/telemetry", "", &tel)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if tel.At.IsZero() {
		t.Error("snapshot At is zero")
	}
	// This test binary links every instrumented package, so the scrape
	// must serve exactly the families API.md's catalog documents.
	served := map[string]bool{}
	for _, f := range tel.Families {
		served[f.Name] = true
	}
	documented := catalogFamilies(t)
	for name := range served {
		if !documented[name] {
			t.Errorf("family %s is served but missing from API.md's metric catalog", name)
		}
	}
	for name := range documented {
		if !served[name] {
			t.Errorf("family %s is in API.md's metric catalog but not served", name)
		}
	}
	// The requests family is labeled and must carry the routes we hit.
	reqs := telFind(t, tel, "flower_http_requests_total")
	if reqs == nil {
		t.Fatal("no requests family")
	}
	if got := strings.Join(reqs.Labels, ","); got != "route,method,code" {
		t.Errorf("labels %q", got)
	}
	seen := map[string]bool{}
	for _, m := range reqs.Metrics {
		if len(m.LabelValues) == 3 {
			seen[m.LabelValues[0]] = true
		}
	}
	if !seen["/v1/flows"] || !seen["/v1/flows/{id}/status"] {
		t.Errorf("route labels missing: %v", seen)
	}
	// Latency histograms ride the shared wire shape.
	lat := telFind(t, tel, "flower_http_request_seconds")
	if lat == nil || len(lat.Metrics) == 0 || lat.Metrics[0].Histogram == nil {
		t.Fatal("latency family has no histogram")
	}
	if lat.Metrics[0].Histogram.Count == 0 {
		t.Error("latency histogram empty")
	}
}

func TestTelemetryProm(t *testing.T) {
	s, _ := newTestServer(t)
	do(t, s, "GET", "/v1/flows", "", nil)

	for _, q := range []struct{ path, accept string }{
		{"/v1/telemetry?format=prom", ""},
		{"/v1/telemetry", "text/plain"},
	} {
		req := httptest.NewRequest("GET", q.path, nil)
		if q.accept != "" {
			req.Header.Set("Accept", q.accept)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", q.path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: content type %q", q.path, ct)
		}
		body := rec.Body.String()
		for _, want := range []string{
			"# TYPE flower_http_requests_total counter",
			"# TYPE flower_http_request_seconds histogram",
			"flower_http_request_seconds_bucket",
			`le="+Inf"`,
			"flower_process_goroutines",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s: missing %q", q.path, want)
			}
		}
	}
}

func TestTelemetryTrace(t *testing.T) {
	s, reg := newTestServer(t)
	// Force every advance to be sampled, then advance the flow so a trace
	// lands in the ring.
	old := telemetry.Traces.Every()
	telemetry.Traces.SetEvery(1)
	defer telemetry.Traces.SetEvery(old)
	// Two advances: the first trace parks awaiting SSE delivery (no watcher
	// is connected), the second finalizes it into the ring.
	f, _ := reg.Get("clicks")
	for i := 0; i < 2; i++ {
		if _, err := f.Advance(time.Minute); err != nil {
			t.Fatal(err)
		}
	}

	var log apiv1.TraceLog
	rec := do(t, s, "GET", "/v1/telemetry/trace", "", &log)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if log.SampleEvery != 1 {
		t.Errorf("sample_every %d", log.SampleEvery)
	}
	if len(log.Traces) == 0 {
		t.Fatal("no traces")
	}
	var found *apiv1.TickTrace
	for i := range log.Traces {
		if log.Traces[i].FlowID == "clicks" {
			found = &log.Traces[i]
			break
		}
	}
	if found == nil {
		t.Fatal("no trace for clicks")
	}
	stages := map[string]bool{}
	for _, st := range found.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{
		telemetry.StageSchedFire,
		telemetry.StageController,
		telemetry.StageAppend,
		telemetry.StagePublish,
	} {
		if !stages[want] {
			t.Errorf("stage %s missing from %v", want, found.Stages)
		}
	}
	if found.TotalNanos <= 0 {
		t.Errorf("total %d", found.TotalNanos)
	}
	if found.AppendCount <= 0 {
		t.Errorf("append count %d", found.AppendCount)
	}
}

func TestRequestIDHeader(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, "GET", "/v1/flows", "", nil)
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID minted")
	}

	// A caller-provided ID is echoed back.
	req := httptest.NewRequest("GET", "/v1/flows", nil)
	req.Header.Set("X-Request-ID", "caller-7")
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if got := rr.Header().Get("X-Request-ID"); got != "caller-7" {
		t.Errorf("request id %q, want caller-7", got)
	}
}

func TestGzipByteCounters(t *testing.T) {
	s, _ := newTestServer(t)
	beforeIn := counterValue(t, "flower_http_gzip_uncompressed_bytes_total")
	beforeOut := counterValue(t, "flower_http_gzip_compressed_bytes_total")

	req := httptest.NewRequest("GET", "/v1/flows/clicks/metrics", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	gr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatalf("response not gzipped: %v", err)
	}
	gr.Close()

	in := counterValue(t, "flower_http_gzip_uncompressed_bytes_total") - beforeIn
	out := counterValue(t, "flower_http_gzip_compressed_bytes_total") - beforeOut
	if in == 0 || out == 0 {
		t.Fatalf("gzip counters did not move: in=%v out=%v", in, out)
	}
	if out >= in {
		t.Errorf("compressed %v >= uncompressed %v", out, in)
	}
}

// counterValue reads an unlabeled counter's current value from a fresh
// snapshot.
func counterValue(t *testing.T, name string) float64 {
	t.Helper()
	snap := telemetry.Default().Snapshot()
	f := snap.Find(name)
	if f == nil {
		t.Fatalf("no family %s", name)
	}
	var total float64
	for _, m := range f.Metrics {
		total += m.Value
	}
	return total
}

func TestSelfScrape(t *testing.T) {
	s, reg := newTestServer(t)
	if err := s.StartSelfScrape(time.Hour); err != nil {
		t.Fatal(err)
	}
	defer s.StopSelfScrape()

	f, ok := reg.Get(SelfScrapeFlow)
	if !ok {
		t.Fatalf("reserved flow %q not created", SelfScrapeFlow)
	}
	// Generate traffic, then force the final scrape via Stop and check the
	// self-metrics landed in the reserved flow's store.
	do(t, s, "GET", "/v1/flows", "", nil)
	s.StopSelfScrape()

	var n int
	f.View(func(m *core.Manager) {
		n = len(m.Store().ListMetrics(metricstore.SelfScrapeNamespace))
	})
	if n == 0 {
		t.Fatal("no self-scrape series in reserved flow store")
	}

	// Stop is idempotent.
	s.StopSelfScrape()
}

func TestWatchHeartbeatCarriesBusTotals(t *testing.T) {
	s, _ := newTestServer(t, WithWatchHeartbeat(30*time.Millisecond))
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/flows/clicks/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	deadline := time.Now().Add(3 * time.Second)
	var got strings.Builder
	for time.Now().Before(deadline) {
		n, err := resp.Body.Read(buf)
		got.Write(buf[:n])
		if strings.Contains(got.String(), ": hb pub=") {
			if !strings.Contains(got.String(), "drop=") {
				t.Fatalf("heartbeat missing drop total: %q", got.String())
			}
			return
		}
		if err != nil {
			break
		}
	}
	t.Fatalf("no annotated heartbeat seen in %q", got.String())
}
