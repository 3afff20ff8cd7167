package httpapi

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestBatchQueryMatchesSingleQueries(t *testing.T) {
	s, _ := newTestServer(t)

	selectors := []struct {
		ns, name, dim, dimVal string
	}{
		{"Ingestion/Stream", "IncomingRecords", "StreamName", "clicks"},
		{"Analytics/Compute", "CPUUtilization", "Topology", "clicks"},
		{"Storage/KVStore", "ConsumedWriteCapacityUnits", "TableName", "clicks"},
	}
	var queries []string
	for _, sel := range selectors {
		queries = append(queries, fmt.Sprintf(
			`{"flow": "clicks", "ns": %q, "name": %q, "dims": {%q: %q}, "stat": "avg", "window": "15m", "period": "1m"}`,
			sel.ns, sel.name, sel.dim, sel.dimVal))
	}
	var batch struct {
		Results []struct {
			Flow  string    `json:"flow"`
			Ns    string    `json:"ns"`
			Name  string    `json:"name"`
			Stat  string    `json:"stat"`
			Ts    []int64   `json:"ts"`
			Vs    []float64 `json:"vs"`
			Error *struct {
				Code string `json:"code"`
			} `json:"error"`
		} `json:"results"`
	}
	rec := do(t, s, http.MethodPost, "/v1/metrics:batchQuery",
		`{"queries": [`+strings.Join(queries, ",")+`]}`, &batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch query: %d (%s)", rec.Code, rec.Body.String())
	}
	if len(batch.Results) != len(selectors) {
		t.Fatalf("%d results for %d queries", len(batch.Results), len(selectors))
	}

	for i, sel := range selectors {
		res := batch.Results[i]
		if res.Error != nil {
			t.Fatalf("selector %d failed: %+v", i, res.Error)
		}
		if len(res.Ts) != len(res.Vs) {
			t.Fatalf("selector %d: ts/vs length mismatch %d vs %d", i, len(res.Ts), len(res.Vs))
		}
		if len(res.Ts) == 0 {
			t.Fatalf("selector %d: empty result", i)
		}

		// The columnar answer must match the per-point single query
		// point for point.
		var single struct {
			Points []struct {
				T string  `json:"t"`
				V float64 `json:"v"`
			} `json:"points"`
		}
		path := fmt.Sprintf("/v1/flows/clicks/metrics/query?ns=%s&name=%s&dim.%s=%s&stat=avg&window=15m&period=1m",
			sel.ns, sel.name, sel.dim, sel.dimVal)
		if rec := get(t, s, path, &single); rec.Code != http.StatusOK {
			t.Fatalf("single query %s: %d", path, rec.Code)
		}
		if len(single.Points) != len(res.Ts) {
			t.Fatalf("selector %d: single query %d points, batch %d", i, len(single.Points), len(res.Ts))
		}
		for j, p := range single.Points {
			if p.V != res.Vs[j] {
				t.Fatalf("selector %d point %d: single %v, batch %v", i, j, p.V, res.Vs[j])
			}
		}
	}
}

func TestBatchQueryPerSelectorErrors(t *testing.T) {
	s, _ := newTestServer(t)
	var batch struct {
		Results []struct {
			Ts    []int64 `json:"ts"`
			Error *struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		} `json:"results"`
	}
	body := `{"queries": [
		{"flow": "nope", "ns": "Ingestion/Stream", "name": "IncomingRecords"},
		{"flow": "clicks", "ns": "Ingestion/Stream", "name": "NoSuchMetric"},
		{"flow": "clicks", "ns": "Ingestion/Stream", "name": "IncomingRecords", "window": "banana"},
		{"flow": "clicks", "ns": "Ingestion/Stream", "name": "IncomingRecords", "dims": {"StreamName": "clicks"}}
	]}`
	rec := do(t, s, http.MethodPost, "/v1/metrics:batchQuery", body, &batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch with partial failures must still be 200, got %d (%s)", rec.Code, rec.Body.String())
	}
	if len(batch.Results) != 4 {
		t.Fatalf("%d results, want 4", len(batch.Results))
	}
	wantCodes := []string{"not_found", "not_found", "invalid_argument", ""}
	for i, want := range wantCodes {
		res := batch.Results[i]
		switch {
		case want == "" && res.Error != nil:
			t.Errorf("selector %d: unexpected error %+v", i, res.Error)
		case want == "" && len(res.Ts) == 0:
			t.Errorf("selector %d: healthy selector returned no data", i)
		case want != "" && (res.Error == nil || res.Error.Code != want):
			t.Errorf("selector %d: error = %+v, want code %q", i, res.Error, want)
		case want != "" && len(res.Ts) != 0:
			t.Errorf("selector %d: failed selector carries %d points; error entries must stay empty", i, len(res.Ts))
		}
	}
	// The failed selectors must still serialize empty (non-null) columns so
	// columnar consumers can zip ts/vs without nil checks.
	raw := do(t, s, http.MethodPost, "/v1/metrics:batchQuery", body, nil)
	if !strings.Contains(raw.Body.String(), `"ts":[]`) {
		t.Fatalf("error entries lost their empty ts columns: %.300s", raw.Body.String())
	}
}

func TestBatchQueryValidation(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, http.MethodPost, "/v1/metrics:batchQuery", `{"queries": []}`, nil)
	wantEnvelope(t, rec, http.StatusBadRequest, "invalid_argument")

	rec = do(t, s, http.MethodPost, "/v1/metrics:batchQuery", `{`, nil)
	wantEnvelope(t, rec, http.StatusBadRequest, "invalid_argument")

	var sb strings.Builder
	sb.WriteString(`{"queries": [`)
	for i := 0; i < maxBatchQueries+1; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"flow": "clicks", "ns": "a", "name": "b"}`)
	}
	sb.WriteString(`]}`)
	rec = do(t, s, http.MethodPost, "/v1/metrics:batchQuery", sb.String(), nil)
	wantEnvelope(t, rec, http.StatusBadRequest, "invalid_argument")
}

func TestBatchQueryIsCompactJSON(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, http.MethodPost, "/v1/metrics:batchQuery",
		`{"queries": [{"flow": "clicks", "ns": "Ingestion/Stream", "name": "IncomingRecords", "dims": {"StreamName": "clicks"}}]}`, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch query: %d", rec.Code)
	}
	body := rec.Body.String()
	if strings.Contains(body, "\n  ") {
		t.Fatal("batch response is indented; the bulk path must stay compact")
	}
}

// gzipGet fetches path with Accept-Encoding: gzip and returns the raw
// (compressed) size plus the decompressed body.
func gzipGet(t *testing.T, s *Server, path string) (compressed int, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d (%s)", path, rec.Code, rec.Body.String())
	}
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("GET %s: Content-Encoding = %q, want gzip", path, enc)
	}
	gz, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	defer gz.Close()
	data, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Body.Len(), data
}

func TestGzipShrinksMetricPayloads(t *testing.T) {
	s, _ := newTestServer(t)
	path := "/v1/flows/clicks/metrics/query?ns=Ingestion/Stream&name=IncomingRecords&dim.StreamName=clicks&window=15m&period=1m"

	identity := get(t, s, path, nil)
	if identity.Header().Get("Content-Encoding") != "" {
		t.Fatal("identity request unexpectedly compressed")
	}
	plainLen := identity.Body.Len()

	compressedLen, body := gzipGet(t, s, path)
	if !json.Valid(body) {
		t.Fatal("decompressed body is not valid JSON")
	}
	if string(body) != identity.Body.String() {
		t.Fatal("gzip and identity bodies differ")
	}
	// The whole point of the middleware: a real size reduction.
	if compressedLen*2 >= plainLen {
		t.Fatalf("gzip payload %dB is not at least 2x smaller than identity %dB", compressedLen, plainLen)
	}
}
