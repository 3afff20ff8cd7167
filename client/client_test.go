package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/flow"
	"repro/internal/httpapi"
	"repro/internal/lab"
	"repro/internal/registry"
)

// newTestClient stands up a full control plane (registry + HTTP server over
// a real socket) and returns an SDK client for it.
func newTestClient(t *testing.T) *Client {
	t.Helper()
	reg := registry.New()
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(httpapi.NewServer(reg))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

// mustCreate registers a small flow named id and advances it by warmup.
func mustCreate(t *testing.T, c *Client, id string, warmup time.Duration) {
	t.Helper()
	ctx := context.Background()
	if _, err := c.CreateFlow(ctx, apiv1.CreateFlowRequest{ID: id, Peak: 1500, Step: "10s", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if warmup > 0 {
		if _, err := c.Advance(ctx, id, warmup); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSDKRoundTripsEveryEndpoint exercises the complete v1 surface through
// the typed client: create, list, get, status, layers, decisions, tune,
// metrics, paginated queries, snapshot, dependencies, advance, pace,
// dashboard, delete.
func TestSDKRoundTripsEveryEndpoint(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	// Create.
	created, err := c.CreateFlow(ctx, apiv1.CreateFlowRequest{ID: "web", Peak: 1500, Step: "10s", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "web" || created.Paced {
		t.Fatalf("created = %+v", created)
	}

	// List.
	flows, err := c.ListFlows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].ID != "web" {
		t.Fatalf("flows = %+v", flows)
	}

	// Get (spec round-trips typed).
	detail, err := c.GetFlow(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if len(detail.Spec.Layers) != 3 || detail.Spec.Name != "clickstream" {
		t.Fatalf("detail spec = %+v", detail.Spec)
	}

	// Advance.
	adv, err := c.Advance(ctx, "web", 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Ticks != 90 {
		t.Errorf("ticks = %d, want 90", adv.Ticks)
	}

	// Status.
	st, err := c.Status(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 90 || st.Offered == 0 || st.TotalCost <= 0 {
		t.Errorf("status = %+v", st)
	}

	// Layers.
	layers, err := c.Layers(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(layers))
	}
	for _, l := range layers {
		if l.Controller == nil || l.Controller.Type != "adaptive" {
			t.Errorf("%s: controller = %+v", l.Kind, l.Controller)
		}
	}

	// Decisions.
	ds, err := c.Decisions(ctx, "web", "ingestion", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 || len(ds) > 5 {
		t.Errorf("decisions = %d, want 1..5", len(ds))
	}

	// Tune.
	ref, window, deadBand := 70.0, "4m", 8.0
	ctrl, err := c.TuneController(ctx, "web", "analytics",
		apiv1.TuneRequest{Ref: &ref, Window: &window, DeadBand: &deadBand})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Ref != 70 || ctrl.Window != "4m0s" || ctrl.DeadBand != 8 {
		t.Errorf("tuned controller = %+v", ctrl)
	}

	// Metrics listing.
	metrics, err := c.Metrics(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range []string{"Ingestion/Stream", "Analytics/Compute", "Storage/KVStore"} {
		if len(metrics[ns]) == 0 {
			t.Errorf("namespace %s missing", ns)
		}
	}

	// Metric query (typed, with dimensions).
	series, err := c.QueryMetrics(ctx, "web", MetricQuery{
		Namespace:  "Analytics/Compute",
		Name:       "CPUUtilization",
		Dimensions: map[string]string{"Topology": "clickstream"},
		Stat:       "avg",
		Window:     10 * time.Minute,
		Period:     time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) < 10 || series.Stat != "Average" {
		t.Errorf("series = %d points, stat %q", len(series.Points), series.Stat)
	}

	// Paginated query: pages reassemble to the full series.
	all, err := c.QueryAllMetrics(ctx, "web", MetricQuery{
		Namespace:  "Analytics/Compute",
		Name:       "CPUUtilization",
		Dimensions: map[string]string{"Topology": "clickstream"},
		Window:     10 * time.Minute,
		Period:     time.Minute,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Points) != len(series.Points) {
		t.Fatalf("paged points = %d, want %d", len(all.Points), len(series.Points))
	}
	for i := range all.Points {
		if all.Points[i] != series.Points[i] {
			t.Fatalf("point %d differs", i)
		}
	}

	// Snapshot decodes into the monitor type.
	snap, err := c.Snapshot(ctx, "web", 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sections) < 5 {
		t.Errorf("snapshot sections = %d, want >= 5", len(snap.Sections))
	}

	// Dependencies (needs more history).
	if _, err := c.Advance(ctx, "web", 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	deps, err := c.Dependencies(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) == 0 {
		t.Error("no dependencies learned")
	}
	for _, d := range deps {
		if d.Equation == "" || d.Samples == 0 {
			t.Errorf("incomplete dependency %+v", d)
		}
	}

	// Pace lifecycle.
	ps, err := c.SetPace(ctx, "web", 1200, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Running || ps.Pace != 1200 {
		t.Errorf("pace state = %+v", ps)
	}
	if ps, err = c.Pace(ctx, "web"); err != nil || !ps.Running {
		t.Errorf("pace read = %+v, %v", ps, err)
	}
	time.Sleep(60 * time.Millisecond)
	if ps, err = c.SetPace(ctx, "web", 0, 0); err != nil || ps.Running {
		t.Errorf("pace stop = %+v, %v", ps, err)
	}
	after, err := c.Status(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if after.Ticks <= st.Ticks {
		t.Error("pacer did not advance the flow")
	}

	// Dashboard HTML.
	page, err := c.Dashboard(ctx, "web")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "<html") || !strings.Contains(page, "<svg") {
		t.Errorf("dashboard = %.80q", page)
	}

	// Delete, then the flow is gone.
	if err := c.DeleteFlow(ctx, "web"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(ctx, "web"); !IsNotFound(err) {
		t.Errorf("status after delete = %v, want not_found", err)
	}
}

// TestSDKDecodesErrorEnvelopes checks that every failure class surfaces as
// a typed *APIError carrying the server's code and message.
func TestSDKDecodesErrorEnvelopes(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	mustCreate(t, c, "web", 0)

	// 404 not_found.
	_, err := c.Status(ctx, "ghost")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T %v, want *APIError", err, err)
	}
	if ae.StatusCode != http.StatusNotFound || ae.Code != apiv1.CodeNotFound || ae.Message == "" {
		t.Errorf("APIError = %+v", ae)
	}
	if !IsNotFound(err) || IsConflict(err) {
		t.Error("error class helpers disagree")
	}
	if !strings.Contains(ae.Error(), "not_found") {
		t.Errorf("Error() = %q", ae.Error())
	}

	// 409 conflict on duplicate create.
	_, err = c.CreateFlow(ctx, apiv1.CreateFlowRequest{ID: "web"})
	if !IsConflict(err) {
		t.Errorf("duplicate create err = %v, want conflict", err)
	}

	// 400 invalid_argument.
	_, err = c.Advance(ctx, "web", -time.Minute)
	if errors.As(err, &ae) {
		if ae.Code != apiv1.CodeInvalidArgument {
			t.Errorf("advance err code = %q", ae.Code)
		}
	} else {
		t.Errorf("advance err = %T %v", err, err)
	}
	badRef := 500.0
	if _, err := c.TuneController(ctx, "web", "analytics", apiv1.TuneRequest{Ref: &badRef}); err == nil {
		t.Error("bad ref accepted")
	}
}

// TestTwoFlowsDrivenConcurrently is the acceptance scenario: one server,
// two flows created via POST /v1/flows, advanced independently and
// inspected from concurrent goroutines through the SDK. Run with -race.
func TestTwoFlowsDrivenConcurrently(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	ids := []string{"flow-a", "flow-b"}
	for _, id := range ids {
		mustCreate(t, c, id, 0)
	}
	flows, err := c.ListFlows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}

	// Each flow advances a different amount, from several goroutines each,
	// while other goroutines read status/layers/metrics.
	var wg sync.WaitGroup
	advances := map[string]int{"flow-a": 2, "flow-b": 4} // x 5m each
	for _, id := range ids {
		for i := 0; i < advances[id]; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				if _, err := c.Advance(ctx, id, 5*time.Minute); err != nil {
					t.Errorf("advance %s: %v", id, err)
				}
			}(id)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := c.Status(ctx, id); err != nil {
					t.Errorf("status %s: %v", id, err)
				}
				if _, err := c.Layers(ctx, id); err != nil {
					t.Errorf("layers %s: %v", id, err)
				}
			}
		}(id)
	}
	wg.Wait()

	// Each flow holds exactly its own simulated time: 10/20 min at 10s ticks.
	for id, n := range advances {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want := n * 30
		if st.Ticks != want {
			t.Errorf("%s: ticks = %d, want %d", id, st.Ticks, want)
		}
	}
}

// TestManyFlowsLifecycle churns a larger registry through the SDK to
// exercise create/list/delete under concurrency. Run with -race.
func TestManyFlowsLifecycle(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("tenant-%d", i)
			if _, err := c.CreateFlow(ctx, apiv1.CreateFlowRequest{ID: id, Peak: 1000, Step: "10s"}); err != nil {
				t.Errorf("create %s: %v", id, err)
				return
			}
			if _, err := c.Advance(ctx, id, 5*time.Minute); err != nil {
				t.Errorf("advance %s: %v", id, err)
			}
		}(i)
	}
	wg.Wait()

	flows, err := c.ListFlows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != n {
		t.Fatalf("flows = %d, want %d", len(flows), n)
	}
	for i := 0; i < n; i += 2 {
		if err := c.DeleteFlow(ctx, fmt.Sprintf("tenant-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if flows, err = c.ListFlows(ctx); err != nil || len(flows) != n/2 {
		t.Fatalf("flows after delete = %d, %v, want %d", len(flows), err, n/2)
	}
}

// TestSpecTypesSharedWithServer pins the compile-time guarantee the shared
// apiv1 package provides: the SDK's spec type IS the server's spec type.
func TestSpecTypesSharedWithServer(t *testing.T) {
	var spec flow.Spec
	req := apiv1.CreateFlowRequest{Spec: &spec}
	_ = req // assignment compiling is the assertion
}

// TestSDKExperimentFarmEndToEnd is the Scenario Lab acceptance path: an
// 8-trial experiment submitted through the Go SDK against a live control
// plane runs its trials concurrently on the server's worker pool
// (observable overlap), and the aggregated results include a Pareto
// front over (cost, violation rate).
func TestSDKExperimentFarmEndToEnd(t *testing.T) {
	reg := registry.New()
	t.Cleanup(reg.Close)
	srv := httpapi.NewServer(reg, httpapi.WithLab(lab.NewEngine(4)))
	t.Cleanup(srv.Lab().Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()

	// 4 workload patterns × 2 controller variants = 8 trials.
	spec := lab.Spec{
		Name:     "farm",
		Peak:     800,
		Duration: flow.Duration(15 * time.Minute),
		Step:     flow.Duration(10 * time.Second),
		Workloads: []lab.WorkloadVariant{
			{Name: "constant", Workload: flow.WorkloadSpec{Pattern: "constant", Base: 300, Poisson: true, Seed: 3}},
			{Name: "step", Workload: flow.WorkloadSpec{Pattern: "step", Base: 200, Peak: 700, At: flow.Duration(5 * time.Minute)}},
			{Name: "sine", Workload: flow.WorkloadSpec{Pattern: "sine", Base: 200, Peak: 600, Period: flow.Duration(30 * time.Minute), Poisson: true, Seed: 4}},
			{Name: "spike", Workload: flow.WorkloadSpec{Pattern: "spike", Base: 200, Peak: 500, Period: flow.Duration(2 * time.Hour), At: flow.Duration(5 * time.Minute), Length: flow.Duration(4 * time.Minute), Factor: 3, Poisson: true, Seed: 5}},
		},
		Controllers: []lab.ControllerVariant{
			{Name: "adaptive"},
			{Name: "static", Layers: map[flow.LayerKind]flow.ControllerSpec{
				flow.Ingestion: {Type: flow.ControllerNone},
				flow.Analytics: {Type: flow.ControllerNone},
				flow.Storage:   {Type: flow.ControllerNone},
			}},
		},
		Baseline: "constant/static",
	}

	created, err := c.CreateExperiment(ctx, apiv1.CreateExperimentRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "farm" || created.Trials != 8 {
		t.Fatalf("created = %+v", created)
	}

	final, err := c.WaitExperiment(ctx, "farm")
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != lab.StatusCompleted {
		t.Fatalf("status = %q", final.Status)
	}
	if final.Progress.MaxConcurrent < 2 {
		t.Fatalf("no observable trial overlap: max concurrent = %d", final.Progress.MaxConcurrent)
	}

	res, err := c.ExperimentResults(ctx, "farm")
	if err != nil {
		t.Fatal(err)
	}
	agg := res.Results.Aggregates
	if agg.Completed != 8 {
		t.Fatalf("completed %d/8 trials", agg.Completed)
	}
	if len(agg.Pareto) == 0 {
		t.Fatal("no Pareto front in the aggregates")
	}
	if agg.Baseline != "constant/static" || len(agg.Deltas) != 7 {
		t.Fatalf("baseline deltas wrong: baseline %q, %d deltas", agg.Baseline, len(agg.Deltas))
	}
	names := map[string]bool{}
	for _, tr := range res.Results.Trials {
		if tr.Status != lab.TrialDone {
			t.Fatalf("trial %q status %q (%s)", tr.Name, tr.Status, tr.Error)
		}
		if tr.TotalCost <= 0 || tr.Ticks != 90 {
			t.Fatalf("trial %q degenerate: cost %v, ticks %d", tr.Name, tr.TotalCost, tr.Ticks)
		}
		names[tr.Name] = true
	}
	if !names["step/adaptive"] || !names["spike/static"] {
		t.Fatalf("trial grid incomplete: %v", names)
	}

	// The experiment coexists with flows on the same control plane.
	mustCreate(t, c, "web", 5*time.Minute)
	list, err := c.ListExperiments(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("ListExperiments = %v, %v", list, err)
	}
	if err := c.DeleteExperiment(ctx, "farm"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetExperiment(ctx, "farm"); !IsNotFound(err) {
		t.Fatalf("get after delete = %v", err)
	}
}

// TestSDKExperimentCancelMidRun cancels a long experiment through the
// SDK and still reads partial results afterwards.
func TestSDKExperimentCancelMidRun(t *testing.T) {
	reg := registry.New()
	t.Cleanup(reg.Close)
	srv := httpapi.NewServer(reg, httpapi.WithLab(lab.NewEngine(1)))
	t.Cleanup(srv.Lab().Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()

	// Long enough that the trials cannot finish before the cancel's HTTP
	// round trip lands: this controller-less spec simulates extremely
	// fast, and the cancel must arrive mid-run for the test to mean
	// anything.
	spec := lab.Spec{
		Name:     "slow",
		Peak:     600,
		Duration: flow.Duration(4000 * time.Hour),
		Seeds:    []int64{0, 1, 2, 3},
	}
	if _, err := c.CreateExperiment(ctx, apiv1.CreateExperimentRequest{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelExperiment(ctx, "slow"); err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitExperiment(ctx, "slow")
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != lab.StatusCancelled {
		t.Fatalf("status = %q", final.Status)
	}
	res, err := c.ExperimentResults(ctx, "slow")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results.Trials) != 4 {
		t.Fatalf("results cover %d trials", len(res.Results.Trials))
	}
	for _, tr := range res.Results.Trials {
		if tr.Status == lab.TrialRunning || tr.Status == lab.TrialPending {
			t.Fatalf("trial %q unsettled after cancel: %q", tr.Name, tr.Status)
		}
	}
}

// TestSDKSchedulerStats fetches the execution-plane view through the SDK.
func TestSDKSchedulerStats(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	mustCreate(t, c, "sched-view", 0)
	if _, err := c.SetPace(ctx, "sched-view", 600, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := c.SchedulerStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Shards <= 0 || st.Capacity != st.Shards*st.WorkersPerShard || len(st.PerShard) != st.Shards {
			t.Fatalf("implausible scheduler stats: %+v", st)
		}
		if st.ExecutedFlow > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pacer executions never reached the stats endpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.SetPace(ctx, "sched-view", 0, 0); err != nil {
		t.Fatal(err)
	}
}
