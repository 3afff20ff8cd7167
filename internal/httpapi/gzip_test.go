package httpapi

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	apiv1 "repro/api/v1"
)

// gzipRoute is one request to a withGzip-wrapped route. same judges a
// decompressed body against the identity body of the same request; nil
// means the two must be byte-identical.
type gzipRoute struct {
	name, method, path, body string
	same                     func(gz, identity []byte) error
}

// gzipRoutes covers every withGzip registration in server.go, the
// telemetry route in both of its formats. newGzipTestServer provides the
// flow and the finished experiment they read.
func gzipRoutes() []gzipRoute {
	return []gzipRoute{
		{name: "metrics", method: http.MethodGet, path: "/v1/flows/clicks/metrics"},
		{name: "metrics_query", method: http.MethodGet,
			path: "/v1/flows/clicks/metrics/query?ns=Ingestion/Stream&name=IncomingRecords&dim.StreamName=clicks&window=15m&period=1m"},
		{name: "snapshot", method: http.MethodGet, path: "/v1/flows/clicks/snapshot"},
		{name: "batch_query", method: http.MethodPost, path: "/v1/metrics:batchQuery",
			body: `{"queries": [{"flow": "clicks", "ns": "Analytics/Compute", "name": "CPUUtilization", "window": "15m", "period": "1m"}]}`},
		// The response carries its own plan and execution timings.
		{name: "query", method: http.MethodPost, path: "/v1/query",
			body: `{"q": "select flow=clicks ns=Ingestion/Stream name=IncomingRecords | window 15m"}`,
			same: sameQueryRows},
		{name: "experiment_results", method: http.MethodGet, path: "/v1/experiments/sweep/results"},
		// Telemetry counters move between any two scrapes (this one's own
		// request included), so its bodies must parse rather than match.
		{name: "telemetry_json", method: http.MethodGet, path: "/v1/telemetry", same: parsesAsTelemetryJSON},
		{name: "telemetry_prom", method: http.MethodGet, path: "/v1/telemetry?format=prom", same: parsesAsProm},
	}
}

// newGzipTestServer is newTestServer plus the finished experiment that
// the results route reads.
func newGzipTestServer(t *testing.T) *Server {
	t.Helper()
	s, _ := newTestServer(t)
	t.Cleanup(s.Lab().Close)
	if rec := do(t, s, http.MethodPost, "/v1/experiments", `{"id": "sweep", "spec": `+labSpecJSON("windows", 5)+`}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("create experiment: %d (%s)", rec.Code, rec.Body.String())
	}
	waitExperiment(t, s, "sweep")
	return s
}

// serve performs one request, with acceptEncoding as the Accept-Encoding
// header when it is not empty.
func (rt gzipRoute) serve(s *Server, acceptEncoding string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(rt.method, rt.path, strings.NewReader(rt.body))
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// identity fetches the route's uncompressed body.
func (rt gzipRoute) identity(t *testing.T, s *Server) []byte {
	t.Helper()
	rec := rt.serve(s, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: identity status %d (%s)", rt.name, rec.Code, rec.Body.String())
	}
	if enc := rec.Header().Get("Content-Encoding"); enc != "" {
		t.Fatalf("%s: identity request answered with Content-Encoding %q", rt.name, enc)
	}
	return rec.Body.Bytes()
}

// checkGzip fetches the route with gzip accepted and checks the headers
// and that the body decompresses to the identity response. It returns an
// error rather than failing so that goroutines can call it.
func (rt gzipRoute) checkGzip(s *Server, identity []byte) error {
	rec := rt.serve(s, "gzip")
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d", rt.name, rec.Code)
	}
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		return fmt.Errorf("%s: Content-Encoding = %q, want gzip", rt.name, enc)
	}
	if vary := rec.Header().Values("Vary"); !reflect.DeepEqual(vary, []string{"Accept-Encoding"}) {
		return fmt.Errorf("%s: Vary = %q, want Accept-Encoding", rt.name, vary)
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		return fmt.Errorf("%s: %v", rt.name, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("%s: gunzip: %v", rt.name, err)
	}
	if rt.same != nil {
		if err := rt.same(body, identity); err != nil {
			return fmt.Errorf("%s: %v", rt.name, err)
		}
		return nil
	}
	if !bytes.Equal(body, identity) {
		return fmt.Errorf("%s: gunzipped body (%d B) differs from identity (%d B)", rt.name, len(body), len(identity))
	}
	return nil
}

// sameQueryRows compares two /v1/query responses with their timings zeroed.
func sameQueryRows(gz, identity []byte) error {
	var a, b apiv1.QueryResponse
	if err := json.Unmarshal(gz, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(identity, &b); err != nil {
		return err
	}
	a.Stats.PlanNanos, a.Stats.ExecNanos = 0, 0
	b.Stats.PlanNanos, b.Stats.ExecNanos = 0, 0
	if len(a.Results) == 0 || !reflect.DeepEqual(a, b) {
		return fmt.Errorf("query rows differ: %d vs %d series", len(a.Results), len(b.Results))
	}
	return nil
}

func parsesAsTelemetryJSON(gz, _ []byte) error {
	var tel apiv1.Telemetry
	if err := json.Unmarshal(gz, &tel); err != nil {
		return err
	}
	if len(tel.Families) == 0 {
		return fmt.Errorf("telemetry JSON has no families")
	}
	return nil
}

// parsesAsProm checks the text exposition line by line: comments are HELP
// or TYPE headers, every other line is a series and a parseable value.
func parsesAsProm(gz, _ []byte) error {
	text, ok := strings.CutSuffix(string(gz), "\n")
	if !ok || text == "" {
		return fmt.Errorf("prom body is empty or unterminated")
	}
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		j := strings.LastIndexByte(line, ' ')
		if j <= 0 {
			return fmt.Errorf("line %d: %q is not a sample", i+1, line)
		}
		if _, err := strconv.ParseFloat(line[j+1:], 64); err != nil {
			return fmt.Errorf("line %d: %v", i+1, err)
		}
	}
	return nil
}

func TestGzipRoutes(t *testing.T) {
	s := newGzipTestServer(t)
	for _, rt := range gzipRoutes() {
		t.Run(rt.name, func(t *testing.T) {
			if err := rt.checkGzip(s, rt.identity(t, s)); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestGzipRoutesConcurrent hits every gzip route from 8 goroutines at
// once. The writers are pooled, so a writer that a Reset left holding
// state from an earlier request would corrupt a later body; run it with
// -race -count=10.
func TestGzipRoutesConcurrent(t *testing.T) {
	s := newGzipTestServer(t)
	routes := gzipRoutes()
	identities := make([][]byte, len(routes))
	for i, rt := range routes {
		identities[i] = rt.identity(t, s)
	}
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < rounds*len(routes); n++ {
				i := (w + n) % len(routes) // workers stagger across routes
				if err := routes[i].checkGzip(s, identities[i]); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGzipNegotiation checks the Accept-Encoding parser and, end to end,
// that the encoding a gzip route answers with follows it.
func TestGzipNegotiation(t *testing.T) {
	s, _ := newTestServer(t)
	rt := gzipRoute{name: "metrics", method: http.MethodGet, path: "/v1/flows/clicks/metrics"}
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"gzip;q=0", false},
		{"gzip; q=0.000", false},
		{"deflate, gzip;q=0.5", true},
		{"gzip;q=0, deflate", false},
		{"deflate, br", false},
		{"gzip;Q=0", false},
		{"gzip;q=bogus", true},
		{"notgzip", false},
		{"*", false},
	} {
		if got := acceptsGzip(tc.header); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
		rec := rt.serve(s, tc.header)
		if rec.Code != http.StatusOK {
			t.Fatalf("Accept-Encoding %q: status %d", tc.header, rec.Code)
		}
		want := ""
		if tc.want {
			want = "gzip"
		}
		if got := rec.Header().Get("Content-Encoding"); got != want {
			t.Errorf("Accept-Encoding %q: Content-Encoding = %q, want %q", tc.header, got, want)
		}
		if !tc.want && !json.Valid(rec.Body.Bytes()) {
			t.Errorf("Accept-Encoding %q: identity body is not JSON", tc.header)
		}
	}
}
