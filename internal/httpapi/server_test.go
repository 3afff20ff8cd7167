package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lab"
	"repro/internal/registry"
	"repro/internal/sim"
)

// newTestServer registers the default click-stream flow as "clicks" and
// advances it far enough that every metric exists.
func newTestServer(t *testing.T, opts ...Option) (*Server, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	t.Cleanup(reg.Close)
	spec, err := flow.DefaultClickstream(2000)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "clicks"
	f, err := reg.Create("clicks", spec, sim.Options{Step: 10 * time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return NewServer(reg, opts...), reg
}

// do performs a request against the server and decodes JSON into out.
func do(t *testing.T, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil {
		if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v (body %q)", method, path, err, rec.Body.String())
		}
	}
	return rec
}

func get(t *testing.T, s *Server, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	return do(t, s, http.MethodGet, path, "", out)
}

// wantEnvelope asserts rec holds a JSON error envelope with the given
// status and code.
func wantEnvelope(t *testing.T, rec *httptest.ResponseRecorder, status int, code apiv1.ErrorCode) {
	t.Helper()
	if rec.Code != status {
		t.Errorf("status = %d, want %d (body %q)", rec.Code, status, rec.Body.String())
	}
	var env apiv1.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body not an envelope: %v (body %q)", err, rec.Body.String())
	}
	if env.Error.Code != code {
		t.Errorf("error code = %q, want %q", env.Error.Code, code)
	}
	if env.Error.Message == "" {
		t.Error("empty error message")
	}
}

// --- flow collection ---

func TestCreateListGetDeleteFlow(t *testing.T) {
	s, reg := newTestServer(t)

	var created apiv1.FlowSummary
	rec := do(t, s, http.MethodPost, "/v1/flows", `{"id": "web", "peak": 1500, "seed": 3}`, &created)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status = %d: %s", rec.Code, rec.Body)
	}
	if created.ID != "web" || created.Paced {
		t.Errorf("created = %+v", created)
	}
	if reg.Len() != 2 {
		t.Fatalf("registry len = %d, want 2", reg.Len())
	}

	var list apiv1.FlowList
	get(t, s, "/v1/flows", &list)
	if list.Count != 2 || len(list.Flows) != 2 {
		t.Fatalf("list = %+v", list)
	}
	if list.Flows[0].ID != "clicks" || list.Flows[1].ID != "web" {
		t.Errorf("list order: %q, %q", list.Flows[0].ID, list.Flows[1].ID)
	}

	var detail apiv1.FlowDetail
	if rec := get(t, s, "/v1/flows/web", &detail); rec.Code != http.StatusOK {
		t.Fatalf("get status = %d", rec.Code)
	}
	if len(detail.Spec.Layers) != 3 {
		t.Errorf("spec layers = %d, want 3", len(detail.Spec.Layers))
	}

	if rec := do(t, s, http.MethodDelete, "/v1/flows/web", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete status = %d", rec.Code)
	}
	wantEnvelope(t, get(t, s, "/v1/flows/web", nil), http.StatusNotFound, apiv1.CodeNotFound)
	wantEnvelope(t, do(t, s, http.MethodDelete, "/v1/flows/web", "", nil), http.StatusNotFound, apiv1.CodeNotFound)
}

func TestCreateFlowValidation(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		body string
		code apiv1.ErrorCode
		want int
	}{
		{`{"id": "clicks"}`, apiv1.CodeConflict, http.StatusConflict},
		{`{"id": "bad id!"}`, apiv1.CodeInvalidArgument, http.StatusBadRequest},
		{`{"id": "x", "step": "zero"}`, apiv1.CodeInvalidArgument, http.StatusBadRequest},
		{`{"id": "x", "pace": -3}`, apiv1.CodeInvalidArgument, http.StatusBadRequest},
		{`{"id": "x", "spec": {"name": "x"}}`, apiv1.CodeInvalidArgument, http.StatusBadRequest},
		{`not json`, apiv1.CodeInvalidArgument, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := do(t, s, http.MethodPost, "/v1/flows", c.body, nil)
		wantEnvelope(t, rec, c.want, c.code)
	}
}

func TestCreateFlowFromFullSpec(t *testing.T) {
	s, _ := newTestServer(t)
	spec, err := flow.DefaultClickstream(1000)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "custom"
	data, err := json.Marshal(apiv1.CreateFlowRequest{Spec: &spec, Step: "5s"})
	if err != nil {
		t.Fatal(err)
	}
	var created apiv1.FlowSummary
	rec := do(t, s, http.MethodPost, "/v1/flows", string(data), &created)
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if created.ID != "custom" { // id defaults to the spec name
		t.Errorf("id = %q, want custom", created.ID)
	}
}

// --- flow sub-resources ---

func TestStatusReportsProgress(t *testing.T) {
	s, _ := newTestServer(t)
	var st apiv1.Status
	if rec := get(t, s, "/v1/flows/clicks/status", &st); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if st.Ticks != 90 { // 15 min at 10s ticks
		t.Errorf("ticks = %d, want 90", st.Ticks)
	}
	if st.Offered == 0 {
		t.Error("no records offered")
	}
	if st.Allocation.Shards <= 0 || st.Allocation.VMs <= 0 {
		t.Errorf("implausible allocation %+v", st.Allocation)
	}
	if st.TotalCost <= 0 {
		t.Error("no cost metered")
	}
}

func TestLayersExposeControllersAndUtilization(t *testing.T) {
	s, _ := newTestServer(t)
	var layers []apiv1.Layer
	if rec := get(t, s, "/v1/flows/clicks/layers", &layers); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(layers))
	}
	for _, l := range layers {
		if l.Controller == nil {
			t.Errorf("%s: no controller in response", l.Kind)
			continue
		}
		if l.Controller.Type != "adaptive" {
			t.Errorf("%s: controller type %q", l.Kind, l.Controller.Type)
		}
		if l.Controller.Ref != 60 {
			t.Errorf("%s: ref %v, want 60", l.Kind, l.Controller.Ref)
		}
		if l.Controller.Gain <= 0 {
			t.Errorf("%s: gain %v not exposed", l.Kind, l.Controller.Gain)
		}
		if l.Allocation <= 0 {
			t.Errorf("%s: allocation %v", l.Kind, l.Allocation)
		}
	}
}

func TestAdvanceMovesOneFlowOnly(t *testing.T) {
	s, _ := newTestServer(t)
	do(t, s, http.MethodPost, "/v1/flows", `{"id": "other", "peak": 1000}`, nil)

	var before, after, other apiv1.Status
	get(t, s, "/v1/flows/clicks/status", &before)
	rec := do(t, s, http.MethodPost, "/v1/flows/clicks/advance?d=10m", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("advance status = %d: %s", rec.Code, rec.Body)
	}
	get(t, s, "/v1/flows/clicks/status", &after)
	if got := after.Ticks - before.Ticks; got != 60 {
		t.Errorf("advance added %d ticks, want 60", got)
	}
	// The sibling flow's clock must not have moved.
	get(t, s, "/v1/flows/other/status", &other)
	if other.Ticks != 0 {
		t.Errorf("sibling flow advanced to %d ticks", other.Ticks)
	}
}

func TestAdvanceJSONBody(t *testing.T) {
	s, _ := newTestServer(t)
	var res apiv1.AdvanceResult
	rec := do(t, s, http.MethodPost, "/v1/flows/clicks/advance", `{"duration": "5m"}`, &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if res.Advanced != "5m0s" {
		t.Errorf("advanced = %q", res.Advanced)
	}
}

func TestAdvanceRejectsBadDurations(t *testing.T) {
	s, _ := newTestServer(t)
	for _, d := range []string{"", "-5m", "bogus", "20000h"} {
		rec := do(t, s, http.MethodPost, "/v1/flows/clicks/advance?d="+d, "{}", nil)
		wantEnvelope(t, rec, http.StatusBadRequest, apiv1.CodeInvalidArgument)
	}
}

func TestTuneControllerUpdatesLoop(t *testing.T) {
	s, reg := newTestServer(t)
	body := `{"ref": 70, "window": "4m", "dead_band": 8}`
	var ctrl apiv1.Controller
	rec := do(t, s, http.MethodPost, "/v1/flows/clicks/layers/analytics/controller", body, &ctrl)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if ctrl.Ref != 70 || ctrl.Window != "4m0s" || ctrl.DeadBand != 8 {
		t.Errorf("response controller = %+v", ctrl)
	}
	f, _ := reg.Get("clicks")
	f.View(func(m *core.Manager) {
		loop := m.Harness().Loops[flow.Analytics]
		if loop.Ref() != 70 {
			t.Errorf("ref = %v, want 70", loop.Ref())
		}
		if loop.Window() != 4*time.Minute {
			t.Errorf("window = %v, want 4m", loop.Window())
		}
		if loop.DeadBand() != 8 {
			t.Errorf("dead band = %v, want 8", loop.DeadBand())
		}
	})
}

func TestTuneControllerValidation(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		path, body string
		want       int
		code       apiv1.ErrorCode
	}{
		{"/v1/flows/clicks/layers/analytics/controller", `{"ref": -5}`, http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/layers/analytics/controller", `{"ref": 120}`, http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/layers/analytics/controller", `{"window": "0s"}`, http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/layers/analytics/controller", `{"dead_band": -1}`, http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/layers/analytics/controller", `not json`, http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/layers/nosuch/controller", `{"ref": 50}`, http.StatusNotFound, apiv1.CodeNotFound},
		{"/v1/flows/nosuch/layers/analytics/controller", `{"ref": 50}`, http.StatusNotFound, apiv1.CodeNotFound},
	}
	for _, c := range cases {
		rec := do(t, s, http.MethodPost, c.path, c.body, nil)
		wantEnvelope(t, rec, c.want, c.code)
	}
}

func TestDecisionsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	// 15 minutes at a 2-minute window = several decisions.
	var ds []apiv1.Decision
	if rec := get(t, s, "/v1/flows/clicks/layers/ingestion/decisions?n=5", &ds); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(ds) == 0 || len(ds) > 5 {
		t.Fatalf("decisions = %d, want 1..5", len(ds))
	}
	for _, d := range ds {
		if d.Ref != 60 {
			t.Errorf("decision ref %v, want 60", d.Ref)
		}
	}
	rec := get(t, s, "/v1/flows/clicks/layers/ingestion/decisions?n=x", nil)
	wantEnvelope(t, rec, http.StatusBadRequest, apiv1.CodeInvalidArgument)
}

func TestMetricsListCoversAllPlatforms(t *testing.T) {
	s, _ := newTestServer(t)
	var out map[string][]apiv1.MetricID
	if rec := get(t, s, "/v1/flows/clicks/metrics", &out); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, ns := range []string{"Ingestion/Stream", "Analytics/Compute", "Storage/KVStore", "Workload/Generator", "Billing"} {
		if len(out[ns]) == 0 {
			t.Errorf("namespace %s missing from listing", ns)
		}
	}
}

func TestMetricsQueryReturnsSeries(t *testing.T) {
	s, _ := newTestServer(t)
	// The test flow's spec name equals its registry id, "clicks".
	path := fmt.Sprintf(
		"/v1/flows/clicks/metrics/query?ns=Analytics/Compute&name=CPUUtilization&dim.Topology=%s&window=10m&period=1m&stat=avg",
		"clicks")
	var series apiv1.Series
	if rec := get(t, s, path, &series); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	// 10-minute window at 1-minute periods: 10 buckets, or 11 when the
	// window boundary splits a bucket.
	if len(series.Points) < 10 || len(series.Points) > 11 {
		t.Errorf("points = %d, want 10-11 (one per minute)", len(series.Points))
	}
	if series.Stat != "Average" {
		t.Errorf("stat = %q", series.Stat)
	}
	if series.Total != len(series.Points) || series.NextOffset != nil {
		t.Errorf("unpaginated query: total %d, next %v", series.Total, series.NextOffset)
	}
	for _, p := range series.Points {
		if p.V < 0 || p.V > 100 {
			t.Errorf("CPU point %v out of range", p.V)
		}
	}
}

func TestMetricsQueryPagination(t *testing.T) {
	s, _ := newTestServer(t)
	base := "/v1/flows/clicks/metrics/query?ns=Analytics/Compute&name=CPUUtilization&dim.Topology=clicks&window=10m&period=1m"

	var full apiv1.Series
	get(t, s, base, &full)
	total := full.Total
	if total < 10 {
		t.Fatalf("total = %d, want >= 10", total)
	}

	// Page through with limit 4 and reassemble.
	var pages []apiv1.Point
	offset := 0
	for {
		var page apiv1.Series
		rec := get(t, s, fmt.Sprintf("%s&limit=4&offset=%d", base, offset), &page)
		if rec.Code != http.StatusOK {
			t.Fatalf("page status = %d", rec.Code)
		}
		if page.Total != total {
			t.Errorf("page total = %d, want %d", page.Total, total)
		}
		if len(page.Points) > 4 {
			t.Errorf("page size = %d, want <= 4", len(page.Points))
		}
		pages = append(pages, page.Points...)
		if page.NextOffset == nil {
			break
		}
		if *page.NextOffset != offset+4 {
			t.Fatalf("next_offset = %d, want %d", *page.NextOffset, offset+4)
		}
		offset = *page.NextOffset
	}
	if len(pages) != total {
		t.Fatalf("reassembled %d points, want %d", len(pages), total)
	}
	for i, p := range pages {
		if p != full.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, p, full.Points[i])
		}
	}

	// Offset past the end: empty page, no next.
	var empty apiv1.Series
	get(t, s, fmt.Sprintf("%s&limit=4&offset=%d", base, total+5), &empty)
	if len(empty.Points) != 0 || empty.NextOffset != nil {
		t.Errorf("past-end page: %d points, next %v", len(empty.Points), empty.NextOffset)
	}

	// Client-supplied offset and limit near MaxInt must not overflow
	// offset+limit: the page runs to the end with no next_offset.
	var rest apiv1.Series
	get(t, s, fmt.Sprintf("%s&offset=1&limit=%d", base, math.MaxInt), &rest)
	if len(rest.Points) != total-1 || rest.NextOffset != nil {
		t.Errorf("offset=1, limit=MaxInt: %d points, next %v; want %d, none", len(rest.Points), rest.NextOffset, total-1)
	}
	var far apiv1.Series
	get(t, s, fmt.Sprintf("%s&offset=%d&limit=4", base, math.MaxInt), &far)
	if len(far.Points) != 0 || far.NextOffset != nil {
		t.Errorf("offset=MaxInt: %d points, next %v; want 0, none", len(far.Points), far.NextOffset)
	}
}

func TestMetricsQueryValidation(t *testing.T) {
	s, _ := newTestServer(t)
	cases := []struct {
		path string
		want int
		code apiv1.ErrorCode
	}{
		{"/v1/flows/clicks/metrics/query", http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/metrics/query?ns=X", http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/metrics/query?ns=X&name=Y&stat=bogus", http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/metrics/query?ns=X&name=Y&window=-1m", http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/metrics/query?ns=X&name=Y&period=zzz", http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/metrics/query?ns=X&name=Y&limit=-1", http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/metrics/query?ns=X&name=Y&offset=zz", http.StatusBadRequest, apiv1.CodeInvalidArgument},
		{"/v1/flows/clicks/metrics/query?ns=NoSuch&name=Nope", http.StatusNotFound, apiv1.CodeNotFound},
	}
	for _, c := range cases {
		wantEnvelope(t, get(t, s, c.path, nil), c.want, c.code)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	var snap struct {
		Sections []struct {
			Namespace string
			Metrics   []struct{ Last float64 }
		}
	}
	if rec := get(t, s, "/v1/flows/clicks/snapshot?window=10m", &snap); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(snap.Sections) < 5 {
		t.Errorf("sections = %d, want >= 5 platforms", len(snap.Sections))
	}
}

func TestDependenciesEndpoint(t *testing.T) {
	s, reg := newTestServer(t)
	// Advance enough for the dependency analyzer's minimum sample count.
	f, _ := reg.Get("clicks")
	if _, err := f.Advance(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	var out []apiv1.Dependency
	if rec := get(t, s, "/v1/flows/clicks/dependencies", &out); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(out) == 0 {
		t.Fatal("no dependencies learned")
	}
	for _, d := range out {
		if d.Equation == "" || d.Samples == 0 {
			t.Errorf("incomplete dependency %+v", d)
		}
	}
}

func TestPaceEndpointStartsAndStops(t *testing.T) {
	s, _ := newTestServer(t)
	var st apiv1.PaceState
	rec := do(t, s, http.MethodPost, "/v1/flows/clicks/pace", `{"pace": 1200, "wall_tick": "10ms"}`, &st)
	if rec.Code != http.StatusOK {
		t.Fatalf("pace status = %d: %s", rec.Code, rec.Body)
	}
	if !st.Running || st.Pace != 1200 || st.WallTick != "10ms" {
		t.Errorf("pace state = %+v", st)
	}
	time.Sleep(60 * time.Millisecond)

	get(t, s, "/v1/flows/clicks/pace", &st)
	if !st.Running {
		t.Error("pace state lost")
	}

	do(t, s, http.MethodPost, "/v1/flows/clicks/pace", `{"pace": 0}`, &st)
	if st.Running {
		t.Error("pacer still running after stop")
	}
	var status apiv1.Status
	get(t, s, "/v1/flows/clicks/status", &status)
	if status.Ticks <= 90 {
		t.Errorf("pacer did not advance: %d ticks", status.Ticks)
	}

	rec = do(t, s, http.MethodPost, "/v1/flows/clicks/pace", `{"pace": -1}`, nil)
	wantEnvelope(t, rec, http.StatusBadRequest, apiv1.CodeInvalidArgument)
}

// TestRequestsCannotStartUnboundedWork: one advance request or one pacer
// tick may run at most a simulated year of steps at the default 10 s step,
// a pacer tick must move simulated time forward, a pacer may not tick
// faster than the scheduler's wheel can fire it, and a flow spec may not
// size the simulator's per-shard or per-partition state past its bounds
// (unbounded, such a create ends in a makeslice panic, a 500). Each
// request below is refused with 400 and changes nothing: no flow is
// created, the running pacer keeps its pace, and the advanced flow's clock
// does not move. The benchmark's pace (40 at the default 250 ms wall tick)
// is accepted. The cheap refusals come first, so a missing bound fails the
// test before a costly one can start work.
func TestRequestsCannotStartUnboundedWork(t *testing.T) {
	s, reg := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/flows/clicks/pace", `{"pace": 40}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("benchmark pace: status = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/v1/flows", `{"id": "fine", "step": "1ns"}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("create 1 ns flow: status = %d: %s", rec.Code, rec.Body)
	}
	// createEdited is a create request for the default flow as "new" with
	// one layer edited.
	createEdited := func(kind flow.LayerKind, edit func(*flow.LayerSpec)) string {
		spec, err := flow.DefaultClickstream(3000)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spec.Layers {
			if spec.Layers[i].Kind == kind {
				edit(&spec.Layers[i])
			}
		}
		body, err := json.Marshal(apiv1.CreateFlowRequest{ID: "new", Spec: &spec})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	cases := []struct{ name, path, body string }{
		{"create with 2^50 storage partitions", "/v1/flows",
			createEdited(flow.Storage, func(l *flow.LayerSpec) { l.Partitions = 1 << 50 })},
		{"create with 1e15 ingestion shards", "/v1/flows",
			createEdited(flow.Ingestion, func(l *flow.LayerSpec) { l.Initial, l.Max = 1e15, 1e15 })},
		{"pace ticking every 100 µs, under the wheel tick", "/v1/flows/clicks/pace", `{"pace": 40, "wall_tick": "100us"}`},
		{"pace ticking every 1 ms, under the wheel tick", "/v1/flows/clicks/pace", `{"pace": 40, "wall_tick": "1ms"}`},
		{"pace rounding to 0 ns per tick", "/v1/flows/clicks/pace", `{"pace": 1e-12}`},
		{"create paced at 0 ns per tick", "/v1/flows", `{"id": "new", "pace": 1e-12}`},
		{"pace overflowing time.Duration", "/v1/flows/clicks/pace", `{"pace": 4e10}`},
		{"create paced past time.Duration", "/v1/flows", `{"id": "new", "pace": 4e10}`},
		{"pace of 69,444 h per tick", "/v1/flows/clicks/pace", `{"pace": 1e9}`},
		{"create paced at 69,444 h per tick", "/v1/flows", `{"id": "new", "pace": 1e9}`},
		{"create paced at 1e10 steps per tick", "/v1/flows", `{"id": "new", "step": "1ns", "pace": 40}`},
		{"advance a year of 1 ns steps", "/v1/flows/fine/advance?d=8760h", ""},
	}
	for _, c := range cases {
		rec := do(t, s, http.MethodPost, c.path, c.body, nil)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400 (body %q)", c.name, rec.Code, rec.Body)
		}
		wantEnvelope(t, rec, http.StatusBadRequest, apiv1.CodeInvalidArgument)
		if _, ok := reg.Get("new"); ok || reg.Len() != 2 {
			t.Fatalf("%s: a refused request left %d flows (flow \"new\" exists: %v)", c.name, reg.Len(), ok)
		}
		var st apiv1.PaceState
		get(t, s, "/v1/flows/clicks/pace", &st)
		if !st.Running || st.Pace != 40 || st.WallTick != "250ms" {
			t.Fatalf("%s: pacer changed to %+v", c.name, st)
		}
		var status apiv1.Status
		get(t, s, "/v1/flows/fine/status", &status)
		if status.Ticks != 0 {
			t.Fatalf("%s: the 1 ns flow advanced %d ticks", c.name, status.Ticks)
		}
	}
	if rec := do(t, s, http.MethodPost, "/v1/flows", `{"id": "bench", "pace": 40}`, nil); rec.Code != http.StatusCreated {
		t.Fatalf("create at the benchmark pace: status = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, s, http.MethodPost, "/v1/flows/clicks/pace", `{"pace": 40, "wall_tick": "2ms"}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("pace at the wheel tick: status = %d: %s", rec.Code, rec.Body)
	}
}

// --- dashboards ---

func TestDashboardRendersHTMLPerFlow(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, http.MethodGet, "/v1/flows/clicks/dashboard", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"<html", "ingestion", "analytics", "storage", "<svg", "Flower", "/v1/flows/clicks/advance"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
}

func TestRootServesDefaultDashboardOrIndex(t *testing.T) {
	s, _ := newTestServer(t)
	// One flow, no explicit default: root renders its dashboard.
	rec := do(t, s, http.MethodGet, "/", "", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "flow “clicks”") {
		t.Fatalf("root = %d: %.80s", rec.Code, rec.Body.String())
	}
	// Two flows, no default: root falls back to the index.
	do(t, s, http.MethodPost, "/v1/flows", `{"id": "web", "peak": 1000}`, nil)
	rec = do(t, s, http.MethodGet, "/", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("index = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"2 managed flows", "/v1/flows/clicks/dashboard", "/v1/flows/web/dashboard"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestWithDefaultFlowPinsRoot(t *testing.T) {
	s, _ := newTestServer(t, WithDefaultFlow("web"))
	do(t, s, http.MethodPost, "/v1/flows", `{"id": "web", "peak": 1000}`, nil)
	rec := do(t, s, http.MethodGet, "/", "", nil)
	if !strings.Contains(rec.Body.String(), "/v1/flows/web/advance") {
		t.Errorf("root did not render pinned default: %.80s", rec.Body.String())
	}
}

func TestUnknownRouteIs404(t *testing.T) {
	s, _ := newTestServer(t)
	rec := do(t, s, http.MethodGet, "/nope", "", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
	wantEnvelope(t, get(t, s, "/v1/flows/ghost/status", nil), http.StatusNotFound, apiv1.CodeNotFound)
}

func TestLayersIncludeReadResourceWhenDashboardEnabled(t *testing.T) {
	reg := registry.New()
	t.Cleanup(reg.Close)
	spec, err := flow.NewBuilder("clicks").
		WithWorkload(flow.WorkloadSpec{Pattern: "constant", Base: 1000}).
		WithIngestion(2, 1, 50, flow.DefaultAdaptive(60, 2*time.Minute, 4)).
		WithAnalytics(2, 1, 50, flow.DefaultAdaptive(60, 2*time.Minute, 4)).
		WithStorage(200, 50, 20000, flow.DefaultAdaptive(60, 2*time.Minute, 400)).
		WithDashboard(50, 10, 5000,
			flow.WorkloadSpec{Pattern: "constant", Base: 40, Poisson: true},
			flow.DefaultAdaptive(60, 2*time.Minute, 100)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := reg.Create("clicks", spec, sim.Options{Step: 10 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(15 * time.Minute); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg)
	var layers []apiv1.Layer
	if rec := get(t, s, "/v1/flows/clicks/layers", &layers); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(layers) != 4 {
		t.Fatalf("layers = %d, want 4 (three layers + storage-reads)", len(layers))
	}
	reads := layers[3]
	if reads.Kind != flow.StorageReads || reads.Resource != "rcu" {
		t.Fatalf("virtual layer = %+v", reads)
	}
	if reads.Controller == nil || reads.Controller.Type != "adaptive" {
		t.Error("read controller not exposed")
	}
	// The read controller is tunable through the same endpoint.
	var ctrl apiv1.Controller
	rec := do(t, s, http.MethodPost, "/v1/flows/clicks/layers/storage-reads/controller", `{"ref": 50}`, &ctrl)
	if rec.Code != http.StatusOK {
		t.Fatalf("tune status = %d: %s", rec.Code, rec.Body)
	}
	if ctrl.Ref != 50 {
		t.Errorf("read loop ref = %v, want 50", ctrl.Ref)
	}
}

// --- experiment collection (Scenario Lab) ---

// labSpecJSON is a small two-trial experiment grid: constant workload ×
// two controller window variants.
func labSpecJSON(name string, durMinutes int) string {
	return fmt.Sprintf(`{
	  "name": %q,
	  "peak": 600,
	  "duration": "%dm",
	  "step": "10s",
	  "workloads": [{"name": "constant", "workload": {"pattern": "constant", "base": 300, "poisson": true, "seed": 7}}],
	  "controllers": [
	    {"name": "fast", "layers": {"analytics": {"type": "adaptive", "ref": 60, "window": "1m", "dead_band": 5, "l0": 0.02, "gamma": 0.01, "l_min": 0.01, "l_max": 0.3}}},
	    {"name": "slow", "layers": {"analytics": {"type": "adaptive", "ref": 60, "window": "5m", "dead_band": 5, "l0": 0.02, "gamma": 0.01, "l_min": 0.01, "l_max": 0.3}}}
	  ]
	}`, name, durMinutes)
}

// waitExperiment polls the detail route until the experiment settles.
func waitExperiment(t *testing.T, s *Server, id string) apiv1.ExperimentDetail {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var detail apiv1.ExperimentDetail
		if rec := get(t, s, "/v1/experiments/"+id, &detail); rec.Code != http.StatusOK {
			t.Fatalf("get experiment: %d (%s)", rec.Code, rec.Body.String())
		}
		if detail.Status != lab.StatusRunning {
			return detail
		}
		if time.Now().After(deadline) {
			t.Fatalf("experiment %q did not settle", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExperimentLifecycleOverHTTP(t *testing.T) {
	s, _ := newTestServer(t)
	t.Cleanup(s.Lab().Close)

	var created apiv1.ExperimentSummary
	rec := do(t, s, http.MethodPost, "/v1/experiments",
		`{"id": "sweep", "spec": `+labSpecJSON("windows", 10)+`}`, &created)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d (%s)", rec.Code, rec.Body.String())
	}
	if created.ID != "sweep" || created.Trials != 2 {
		t.Fatalf("created = %+v", created)
	}

	// Duplicate id conflicts; bad specs and ids are 400s.
	wantEnvelope(t, do(t, s, http.MethodPost, "/v1/experiments",
		`{"id": "sweep", "spec": `+labSpecJSON("windows", 10)+`}`, nil),
		http.StatusConflict, apiv1.CodeConflict)
	wantEnvelope(t, do(t, s, http.MethodPost, "/v1/experiments",
		`{"spec": {"name": "no-duration"}}`, nil),
		http.StatusBadRequest, apiv1.CodeInvalidArgument)
	wantEnvelope(t, do(t, s, http.MethodPost, "/v1/experiments",
		`{"id": "bad id!", "spec": `+labSpecJSON("x", 1)+`}`, nil),
		http.StatusBadRequest, apiv1.CodeInvalidArgument)
	wantEnvelope(t, do(t, s, http.MethodPost, "/v1/experiments", `{nope`, nil),
		http.StatusBadRequest, apiv1.CodeInvalidArgument)

	// The collection lists it; unknown ids are 404s.
	var list apiv1.ExperimentList
	get(t, s, "/v1/experiments", &list)
	if list.Count != 1 || list.Experiments[0].ID != "sweep" {
		t.Fatalf("list = %+v", list)
	}
	wantEnvelope(t, get(t, s, "/v1/experiments/ghost", nil), http.StatusNotFound, apiv1.CodeNotFound)
	wantEnvelope(t, get(t, s, "/v1/experiments/ghost/results", nil), http.StatusNotFound, apiv1.CodeNotFound)

	detail := waitExperiment(t, s, "sweep")
	if detail.Status != lab.StatusCompleted {
		t.Fatalf("status = %q", detail.Status)
	}
	if len(detail.Grid) != 2 || detail.Grid[0].Name != "constant/fast" {
		t.Fatalf("trial grid = %+v", detail.Grid)
	}

	var res apiv1.ExperimentResults
	get(t, s, "/v1/experiments/sweep/results", &res)
	if res.Progress.Done != 2 || res.Results.Aggregates.Completed != 2 {
		t.Fatalf("results = %+v", res.Progress)
	}
	if res.Results.Aggregates.BestCost == nil || len(res.Results.Aggregates.Pareto) == 0 {
		t.Fatalf("aggregates incomplete: %+v", res.Results.Aggregates)
	}
	for _, tr := range res.Results.Trials {
		if tr.Status != lab.TrialDone || tr.TotalCost <= 0 {
			t.Fatalf("trial %q: %+v", tr.Name, tr.Status)
		}
	}

	// Delete removes it from the collection.
	if rec := do(t, s, http.MethodDelete, "/v1/experiments/sweep", "", nil); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	wantEnvelope(t, do(t, s, http.MethodDelete, "/v1/experiments/sweep", "", nil),
		http.StatusNotFound, apiv1.CodeNotFound)
}

func TestExperimentCancelOverHTTP(t *testing.T) {
	reg := registry.New()
	t.Cleanup(reg.Close)
	// A one-worker engine with a long experiment guarantees the cancel
	// lands mid-run.
	s := NewServer(reg, WithLab(lab.NewEngine(1)))
	t.Cleanup(s.Lab().Close)

	rec := do(t, s, http.MethodPost, "/v1/experiments",
		`{"id": "long", "spec": `+labSpecJSON("long", 12*60)+`}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d (%s)", rec.Code, rec.Body.String())
	}
	var cancelled apiv1.ExperimentSummary
	if rec := do(t, s, http.MethodPost, "/v1/experiments/long/cancel", "", &cancelled); rec.Code != http.StatusOK {
		t.Fatalf("cancel: %d", rec.Code)
	}
	detail := waitExperiment(t, s, "long")
	if detail.Status != lab.StatusCancelled {
		t.Fatalf("status after cancel = %q", detail.Status)
	}
	// Results are still served after the cancel.
	var res apiv1.ExperimentResults
	get(t, s, "/v1/experiments/long/results", &res)
	if res.Status != lab.StatusCancelled || len(res.Results.Trials) != 2 {
		t.Fatalf("results after cancel = %q, %d trials", res.Status, len(res.Results.Trials))
	}
	if res.Progress.Cancelled == 0 {
		t.Fatalf("no cancelled trials recorded: %+v", res.Progress)
	}
}
