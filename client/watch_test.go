package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/flow"
	"repro/internal/httpapi"
	"repro/internal/lab"
	"repro/internal/registry"
)

func TestWatchFlowDeliversAdvanceEvents(t *testing.T) {
	c := newTestClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mustCreate(t, c, "web", 0)

	// After "0" replays the retained ring: the advances below may land
	// before the lazy first connect, and must still be delivered.
	w := c.WatchFlow("web", WatchOptions{Types: []string{apiv1.EventFlowAdvanced}, After: "0"})
	defer w.Close()

	go func() {
		for i := 0; i < 3; i++ {
			if _, err := c.Advance(ctx, "web", 5*time.Minute); err != nil {
				return
			}
		}
	}()

	for i := 0; i < 3; i++ {
		ev, err := w.Next(ctx)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Type != apiv1.EventFlowAdvanced || ev.Topic != "web" {
			t.Fatalf("event %d = %+v", i, ev)
		}
		var adv registry.FlowAdvanced
		if err := json.Unmarshal(ev.Data, &adv); err != nil {
			t.Fatal(err)
		}
		if adv.Advanced != "5m0s" {
			t.Fatalf("event %d advanced = %q", i, adv.Advanced)
		}
	}
	if w.LastID() == "" {
		t.Fatal("iterator did not track a resume cursor")
	}
}

// TestWatchAutoReconnectResumes drives the iterator against a stub server
// that drops the connection after every event: Next must reconnect with
// the last cursor and keep delivering without losing or duplicating
// events.
func TestWatchAutoReconnectResumes(t *testing.T) {
	var conns atomic.Int32
	var lastSeen []string
	var mu sync.Mutex
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/flows/web/watch" {
			http.NotFound(w, r)
			return
		}
		n := conns.Add(1)
		mu.Lock()
		lastSeen = append(lastSeen, r.Header.Get("Last-Event-ID"))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		// One event per connection, then EOF.
		fmt.Fprintf(w, `{"id":"f%d","type":"flow.advanced","topic":"web"}`+"\n", n)
	}))
	defer stub.Close()

	c := New(stub.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := c.WatchFlow("web", WatchOptions{})
	defer w.Close()

	for i := 1; i <= 3; i++ {
		ev, err := w.Next(ctx)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if want := fmt.Sprintf("f%d", i); ev.ID != want {
			t.Fatalf("event %d id = %q, want %q", i, ev.ID, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if lastSeen[0] != "" {
		t.Fatalf("first connection sent Last-Event-ID %q, want none", lastSeen[0])
	}
	for i, want := range []string{"f1", "f2"} {
		if lastSeen[i+1] != want {
			t.Fatalf("reconnect %d sent Last-Event-ID %q, want %q", i+1, lastSeen[i+1], want)
		}
	}
}

func TestWatchPermanentErrorSurfaces(t *testing.T) {
	c := newTestClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w := c.WatchFlow("missing", WatchOptions{})
	defer w.Close()
	_, err := w.Next(ctx)
	if !IsNotFound(err) {
		t.Fatalf("Next on a missing flow = %v, want not-found APIError", err)
	}
}

// TestWaitExperimentZeroSteadyStatePolls pins the acceptance criterion:
// against a watch-capable server, WaitExperiment issues zero polls of the
// experiment collection while waiting — only the watch stream plus one
// final authoritative GET.
func TestWaitExperimentZeroSteadyStatePolls(t *testing.T) {
	reg := registry.New()
	t.Cleanup(reg.Close)
	srv := httpapi.NewServer(reg)

	var lists, gets, watches atomic.Int32
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/experiments":
			lists.Add(1)
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/watch"):
			watches.Add(1)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/experiments/"):
			gets.Add(1)
		}
		srv.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	t.Cleanup(ts.Close)
	c := New(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := lab.Spec{Name: "zero-poll", Duration: flow.Duration(2 * time.Minute), Step: flow.Duration(10 * time.Second), Seeds: []int64{0, 1}}
	if _, err := c.CreateExperiment(ctx, apiv1.CreateExperimentRequest{Spec: spec}); err != nil {
		t.Fatal(err)
	}

	sum, err := c.WaitExperiment(ctx, "zero-poll")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Status != lab.StatusCompleted {
		t.Fatalf("status = %q, want completed", sum.Status)
	}
	if got := lists.Load(); got != 0 {
		t.Errorf("WaitExperiment issued %d collection polls, want 0", got)
	}
	if got := gets.Load(); got > 1 {
		t.Errorf("WaitExperiment issued %d experiment GETs, want at most the final one", got)
	}
	if watches.Load() == 0 {
		t.Error("WaitExperiment never opened a watch stream")
	}

	var ae *APIError
	if _, err := c.WaitExperiment(ctx, "no-such-experiment"); !errors.As(err, &ae) || ae.Code != apiv1.CodeNotFound {
		t.Fatalf("WaitExperiment on an unknown experiment = %v, want not-found *APIError", err)
	}
}

func TestBatchQueryMetricsSDK(t *testing.T) {
	c := newTestClient(t)
	ctx := context.Background()
	mustCreate(t, c, "web", 20*time.Minute)

	queries := []BatchQuery{
		{Flow: "web", Namespace: "Ingestion/Stream", Name: "IncomingRecords",
			Dimensions: map[string]string{"StreamName": "clickstream"}, Window: 15 * time.Minute},
		{Flow: "web", Namespace: "Analytics/Compute", Name: "CPUUtilization",
			Dimensions: map[string]string{"Topology": "clickstream"}, Window: 15 * time.Minute, Stat: "p99"},
		{Flow: "web", Namespace: "Ingestion/Stream", Name: "IncomingRecords",
			Dimensions: map[string]string{"StreamName": "clickstream"}, Window: 5 * time.Minute, Raw: true},
	}
	results, err := c.BatchQueryMetrics(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, res := range results {
		if res.Error != nil {
			t.Fatalf("query %d: %+v", i, res.Error)
		}
		if len(res.Ts) == 0 || len(res.Ts) != len(res.Vs) {
			t.Fatalf("query %d: %d ts / %d vs", i, len(res.Ts), len(res.Vs))
		}
	}

	// Column equality against the per-point endpoint.
	series, err := c.QueryMetrics(ctx, "web", MetricQuery{
		Namespace: "Ingestion/Stream", Name: "IncomingRecords",
		Dimensions: map[string]string{"StreamName": "clickstream"}, Window: 15 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != len(results[0].Ts) {
		t.Fatalf("batch %d points, single %d", len(results[0].Ts), len(series.Points))
	}
	for j, p := range series.Points {
		if p.T.UnixNano() != results[0].Ts[j] || p.V != results[0].Vs[j] {
			t.Fatalf("point %d: batch (%d, %v), single (%d, %v)",
				j, results[0].Ts[j], results[0].Vs[j], p.T.UnixNano(), p.V)
		}
	}
	// The raw selector returns per-tick datapoints: strictly more than the
	// 1m-resampled one over the same span.
	if len(results[2].Ts) <= 5 {
		t.Fatalf("raw selector returned %d points, want per-tick density", len(results[2].Ts))
	}
}

func TestClientSetsUserAgentAndTimeout(t *testing.T) {
	gotUA := make(chan string, 1)
	stall := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case gotUA <- r.Header.Get("User-Agent"):
		default:
		}
		if r.URL.Query().Get("stall") == "1" || r.URL.Path == "/v1/flows/slow/status" {
			<-stall
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"flows": [], "count": 0}`)
	}))
	defer stub.Close()
	defer close(stall)

	c := New(stub.URL, WithTimeout(100*time.Millisecond))
	if _, err := c.ListFlows(context.Background()); err != nil {
		t.Fatal(err)
	}
	ua := <-gotUA
	if !strings.Contains(ua, "flower-client") {
		t.Fatalf("User-Agent = %q, want flower-client identifier", ua)
	}

	start := time.Now()
	_, err := c.Status(context.Background(), "slow")
	if err == nil {
		t.Fatal("expected timeout error from a stalled server")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ~100ms", elapsed)
	}
}

func TestDecodeErrorToleratesNonJSONBodies(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "<html><body>upstream exploded</body></html>")
	}))
	defer stub.Close()

	c := New(stub.URL)
	_, err := c.ListFlows(context.Background())
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("error = %T (%v), want *APIError", err, err)
	}
	if ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (non-JSON body must not mask it)", ae.StatusCode)
	}
	if !strings.Contains(ae.Message, "upstream exploded") {
		t.Fatalf("message %q lacks the body snippet", ae.Message)
	}
}
