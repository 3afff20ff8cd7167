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
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/flow"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

// postQuery POSTs a query-plane request body and decodes the response.
func postQuery(t *testing.T, s *Server, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	return do(t, s, http.MethodPost, path, body, out)
}

func TestQueryEndpoint(t *testing.T) {
	s, _ := newTestServer(t)

	var resp apiv1.QueryResponse
	rec := postQuery(t, s, "/v1/query",
		`{"q": "select flow=clicks ns=Ingestion/Stream name=IncomingRecords | window 10m | resample 1m avg"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d (%s)", rec.Code, rec.Body.String())
	}
	if len(resp.Results) != 1 {
		t.Fatalf("%d series, want 1", len(resp.Results))
	}
	ser := resp.Results[0]
	if ser.Flow != "clicks" || ser.Namespace != "Ingestion/Stream" || ser.Name != "IncomingRecords" {
		t.Fatalf("series identity = %+v", ser)
	}
	if len(ser.Ts) == 0 || len(ser.Ts) != len(ser.Vs) {
		t.Fatalf("columns: %d ts, %d vs", len(ser.Ts), len(ser.Vs))
	}
	if resp.Stats.Series != 1 || resp.Stats.Rows != len(ser.Ts) {
		t.Fatalf("stats = %+v, want series 1 rows %d", resp.Stats, len(ser.Ts))
	}
	if resp.Stats.PlanNanos <= 0 || resp.Stats.ExecNanos <= 0 {
		t.Fatalf("stats timings = %+v, want both positive", resp.Stats)
	}
	if strings.Contains(rec.Body.String(), "\n  ") {
		t.Fatal("query response is indented; the bulk path must stay compact")
	}
}

// TestQueryTracksFlowLifecycle: a repeated glob query follows the flow
// set end-to-end — a created flow joins its results on the next request
// and a deleted one leaves them.
func TestQueryTracksFlowLifecycle(t *testing.T) {
	s, reg := newTestServer(t)
	const q = `{"q": "select flow=* ns=Ingestion/Stream name=IncomingRecords | window 10m"}`

	var resp apiv1.QueryResponse
	for i := 0; i < 2; i++ {
		postQuery(t, s, "/v1/query", q, &resp)
		if len(resp.Results) != 1 || resp.Results[0].Flow != "clicks" {
			t.Fatalf("request %d: results = %+v, want clicks only", i, resp.Results)
		}
	}

	spec, err := flow.DefaultClickstream(2000)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "clicks2"
	f, err := reg.Create("clicks2", spec, sim.Options{Step: 10 * time.Second, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	postQuery(t, s, "/v1/query", q, &resp)
	if len(resp.Results) != 2 {
		t.Fatalf("after create: %d series, want 2", len(resp.Results))
	}

	if err := reg.Delete("clicks2"); err != nil {
		t.Fatal(err)
	}
	postQuery(t, s, "/v1/query", q, &resp)
	if len(resp.Results) != 1 || resp.Results[0].Flow != "clicks" {
		t.Fatalf("after delete: results = %+v, want clicks only", resp.Results)
	}
}

// TestQueryMatchesBatchQuery pins the sugar relationship: a one-selector
// batch query and the equivalent pipeline return identical columns,
// because batchQuery now evaluates through the engine.
func TestQueryMatchesBatchQuery(t *testing.T) {
	s, _ := newTestServer(t)

	var q apiv1.QueryResponse
	rec := postQuery(t, s, "/v1/query",
		`{"q": "select flow=clicks ns=Analytics/Compute name=CPUUtilization dim.Topology=clicks | window 15m | resample 1m avg"}`, &q)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d (%s)", rec.Code, rec.Body.String())
	}
	var batch apiv1.BatchQueryResponse
	rec = do(t, s, http.MethodPost, "/v1/metrics:batchQuery",
		`{"queries": [{"flow": "clicks", "ns": "Analytics/Compute", "name": "CPUUtilization", "dims": {"Topology": "clicks"}, "stat": "avg", "window": "15m", "period": "1m"}]}`, &batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d (%s)", rec.Code, rec.Body.String())
	}
	if len(q.Results) != 1 || len(batch.Results) != 1 {
		t.Fatalf("series counts: query %d, batch %d", len(q.Results), len(batch.Results))
	}
	qs, bs := q.Results[0], batch.Results[0]
	if len(qs.Ts) == 0 || len(qs.Ts) != len(bs.Ts) {
		t.Fatalf("column lengths: query %d, batch %d", len(qs.Ts), len(bs.Ts))
	}
	for i := range qs.Ts {
		if qs.Ts[i] != bs.Ts[i] || qs.Vs[i] != bs.Vs[i] {
			t.Fatalf("point %d: query (%d, %v), batch (%d, %v)", i, qs.Ts[i], qs.Vs[i], bs.Ts[i], bs.Vs[i])
		}
	}
}

// TestStatSpellingsAgreeAcrossRoutes holds the read plane to one table of
// statistic names: every spelling the GET route (any letter case) or the
// pipeline and batchQuery parsers (exact CloudWatch forms) ever accepted
// names the same aggregation on all three surfaces, and an unknown name is
// rejected on all three.
func TestStatSpellingsAgreeAcrossRoutes(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		stat string
		want timeseries.Agg
	}{
		{"", timeseries.AggMean}, {"avg", timeseries.AggMean}, {"mean", timeseries.AggMean},
		{"average", timeseries.AggMean}, {"Average", timeseries.AggMean}, {"AVG", timeseries.AggMean},
		{"Mean", timeseries.AggMean},
		{"sum", timeseries.AggSum}, {"Sum", timeseries.AggSum}, {"SUM", timeseries.AggSum},
		{"min", timeseries.AggMin}, {"minimum", timeseries.AggMin}, {"Minimum", timeseries.AggMin},
		{"MIN", timeseries.AggMin},
		{"max", timeseries.AggMax}, {"maximum", timeseries.AggMax}, {"Maximum", timeseries.AggMax},
		{"MAXIMUM", timeseries.AggMax},
		{"count", timeseries.AggCount}, {"samplecount", timeseries.AggCount},
		{"SampleCount", timeseries.AggCount}, {"COUNT", timeseries.AggCount},
		{"p50", timeseries.AggP50}, {"P50", timeseries.AggP50},
		{"p90", timeseries.AggP90}, {"P90", timeseries.AggP90},
		{"p99", timeseries.AggP99}, {"P99", timeseries.AggP99},
	}
	const (
		getPath = "/v1/flows/clicks/metrics/query?ns=Ingestion/Stream&name=IncomingRecords&dim.StreamName=clicks&window=15m&period=1m&stat="
		batchQ  = `{"flow": "clicks", "ns": "Ingestion/Stream", "name": "IncomingRecords", "dims": {"StreamName": "clicks"}, "window": "15m", "period": "1m", "stat": %q}`
		pipe    = "select flow=clicks ns=Ingestion/Stream name=IncomingRecords dim.StreamName=clicks | window 15m | resample 1m "
	)

	// The canonical spelling of each aggregation is its reference answer.
	queries := make([]string, len(cases))
	for i, tc := range cases {
		queries[i] = fmt.Sprintf(batchQ, tc.stat)
	}
	var batch apiv1.BatchQueryResponse
	if rec := do(t, s, http.MethodPost, "/v1/metrics:batchQuery", `{"queries": [`+strings.Join(queries, ",")+`]}`, &batch); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d (%s)", rec.Code, rec.Body.String())
	}
	ref := map[timeseries.Agg]apiv1.ColumnSeries{}
	for i, tc := range cases {
		if _, ok := ref[tc.want]; !ok {
			ref[tc.want] = batch.Results[i]
		}
	}
	same := func(ts []int64, vs []float64, want apiv1.ColumnSeries) bool {
		if len(ts) == 0 || len(ts) != len(want.Ts) || len(vs) != len(want.Vs) {
			return false
		}
		for i := range ts {
			if ts[i] != want.Ts[i] || vs[i] != want.Vs[i] {
				return false
			}
		}
		return true
	}

	for i, tc := range cases {
		want := ref[tc.want]
		if b := batch.Results[i]; b.Error != nil || b.Stat != tc.want.String() || !same(b.Ts, b.Vs, want) {
			t.Errorf("batchQuery stat %q: stat %q error %+v, want %v", tc.stat, b.Stat, b.Error, tc.want)
		}

		var single apiv1.Series
		if rec := get(t, s, getPath+tc.stat, &single); rec.Code != http.StatusOK {
			t.Fatalf("GET stat %q: %d", tc.stat, rec.Code)
		}
		ts := make([]int64, len(single.Points))
		vs := make([]float64, len(single.Points))
		for j, p := range single.Points {
			ts[j], vs[j] = p.T.UnixNano(), p.V
		}
		if single.Stat != tc.want.String() || !same(ts, vs, want) {
			t.Errorf("GET stat %q: stat %q, want %v and the same points", tc.stat, single.Stat, tc.want)
		}

		var q apiv1.QueryResponse
		if rec := postQuery(t, s, "/v1/query", fmt.Sprintf(`{"q": %q}`, pipe+tc.stat), &q); rec.Code != http.StatusOK {
			t.Fatalf("pipe stat %q: %d (%s)", tc.stat, rec.Code, rec.Body.String())
		}
		if len(q.Results) != 1 || !same(q.Results[0].Ts, q.Results[0].Vs, want) {
			t.Errorf("pipe stat %q: answer differs from %v", tc.stat, tc.want)
		}
	}

	// An unknown name is refused on every surface.
	rec := get(t, s, getPath+"bogus", nil)
	wantEnvelope(t, rec, http.StatusBadRequest, apiv1.CodeInvalidArgument)
	if !strings.Contains(rec.Body.String(), "unknown stat") {
		t.Errorf("GET bogus: %s", rec.Body.String())
	}
	if rec := do(t, s, http.MethodPost, "/v1/metrics:batchQuery", `{"queries": [`+fmt.Sprintf(batchQ, "bogus")+`]}`, &batch); rec.Code != http.StatusOK ||
		batch.Results[0].Error == nil || batch.Results[0].Error.Code != apiv1.CodeInvalidArgument ||
		!strings.Contains(batch.Results[0].Error.Message, "unknown stat") {
		t.Errorf("batchQuery bogus: %d %+v", rec.Code, batch.Results[0].Error)
	}
	rec = postQuery(t, s, "/v1/query", fmt.Sprintf(`{"q": %q}`, pipe+"bogus"), nil)
	wantEnvelope(t, rec, http.StatusBadRequest, apiv1.CodeInvalidArgument)
	if !strings.Contains(rec.Body.String(), "unknown stat") {
		t.Errorf("pipe bogus: %s", rec.Body.String())
	}
}

func TestQueryJSONPlan(t *testing.T) {
	s, _ := newTestServer(t)

	pipe := `{"q": "select flow=clicks ns=Ingestion/Stream name=IncomingRecords | window 10m | resample 1m max"}`
	ast := `{"plan": {"stages": [
		{"op": "select", "flow": "clicks", "ns": "Ingestion/Stream", "name": "IncomingRecords"},
		{"op": "window", "window": "10m"},
		{"op": "resample", "period": "1m", "stat": "max"}
	]}}`
	var fromPipe, fromAST apiv1.QueryResponse
	if rec := postQuery(t, s, "/v1/query", pipe, &fromPipe); rec.Code != http.StatusOK {
		t.Fatalf("pipe query: %d (%s)", rec.Code, rec.Body.String())
	}
	if rec := postQuery(t, s, "/v1/query", ast, &fromAST); rec.Code != http.StatusOK {
		t.Fatalf("AST query: %d (%s)", rec.Code, rec.Body.String())
	}
	a, _ := json.Marshal(fromPipe.Results)
	b, _ := json.Marshal(fromAST.Results)
	if string(a) != string(b) {
		t.Fatalf("pipe and AST results differ:\npipe: %.300s\nast:  %.300s", a, b)
	}
}

func TestQueryExplain(t *testing.T) {
	s, _ := newTestServer(t)

	var resp apiv1.QueryExplainResponse
	rec := postQuery(t, s, "/v1/query?explain=1",
		`{"q": "select flow=clicks ns=Ingestion/Stream name=IncomingRecords | window 10m | resample 1m avg | topk 2"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: %d (%s)", rec.Code, rec.Body.String())
	}
	if len(resp.Steps) == 0 || resp.Text == "" {
		t.Fatalf("explain = %+v", resp)
	}
	for _, want := range []string{"select", "[pushdown]", "topk"} {
		if !strings.Contains(resp.Text, want) {
			t.Errorf("explain text missing %q:\n%s", want, resp.Text)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	s, _ := newTestServer(t)

	for _, tc := range []struct {
		name, body string
	}{
		{"empty body", `{}`},
		{"bad json", `{`},
		{"syntax error", `{"q": "select flow=clicks | bogus 1m"}`},
		{"stage order", `{"q": "window 10m | select flow=clicks ns=A name=B"}`},
		{"bad plan", `{"plan": {"stages": [{"op": "window", "window": "10m"}]}}`},
	} {
		rec := postQuery(t, s, "/v1/query", tc.body, nil)
		wantEnvelope(t, rec, http.StatusBadRequest, apiv1.CodeInvalidArgument)
		if t.Failed() {
			t.Fatalf("case %q", tc.name)
		}
	}

	// A selector matching nothing is an empty result, not an error.
	var resp apiv1.QueryResponse
	rec := postQuery(t, s, "/v1/query", `{"q": "select flow=nope ns=A name=B"}`, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty match: %d (%s)", rec.Code, rec.Body.String())
	}
	if len(resp.Results) != 0 || resp.Stats.Rows != 0 {
		t.Fatalf("empty match returned data: %+v", resp)
	}
}

func TestQueryGzip(t *testing.T) {
	s, _ := newTestServer(t)

	body := `{"q": "select flow=clicks ns=Ingestion/Stream name=IncomingRecords | window 15m"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d (%s)", rec.Code, rec.Body.String())
	}
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
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
	if !json.Valid(data) {
		t.Fatal("decompressed query body is not valid JSON")
	}
}
