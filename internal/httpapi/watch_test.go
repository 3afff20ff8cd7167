package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/lab"
	"repro/internal/registry"
)

// startStream opens a live NDJSON watch stream against a real TCP server
// and returns a reader over it. The stream dies with ctx.
func startStream(t *testing.T, ctx context.Context, ts *httptest.Server, path string, header map[string]string) *bufio.Reader {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("watch %s: status %d (%s)", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("watch %s: content type %q", path, ct)
	}
	return bufio.NewReader(resp.Body)
}

// nextEvent reads NDJSON records until a non-transport event arrives
// (hello and heartbeats are keep-alive/cursor records).
func nextEvent(t *testing.T, br *bufio.Reader) apiv1.Event {
	t.Helper()
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("watch stream read: %v", err)
		}
		var ev apiv1.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("watch stream line %q: %v", line, err)
		}
		if ev.Type == apiv1.EventHeartbeat || ev.Type == apiv1.EventHello {
			continue
		}
		return ev
	}
}

func TestWatchFlowStreamsAdvanceAndDecisions(t *testing.T) {
	s, reg := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	br := startStream(t, ctx, ts, "/v1/flows/clicks/watch", nil)

	f, _ := reg.Get("clicks")
	if _, err := f.Advance(10 * time.Minute); err != nil {
		t.Fatal(err)
	}

	ev := nextEvent(t, br)
	if ev.Type != apiv1.EventFlowAdvanced {
		t.Fatalf("first event type = %q, want %q", ev.Type, apiv1.EventFlowAdvanced)
	}
	if ev.Topic != "clicks" {
		t.Fatalf("topic = %q, want clicks", ev.Topic)
	}
	if !strings.HasPrefix(ev.ID, "f") {
		t.Fatalf("event id %q lacks the flow cursor prefix", ev.ID)
	}
	var adv registry.FlowAdvanced
	if err := json.Unmarshal(ev.Data, &adv); err != nil {
		t.Fatalf("decode advanced payload: %v", err)
	}
	if adv.ID != "clicks" || adv.Advanced != "10m0s" || adv.Ticks == 0 {
		t.Fatalf("advanced payload = %+v", adv)
	}

	// A 10-minute advance crosses several controller windows, so decision
	// events must follow.
	sawDecision := false
	for i := 0; i < 50 && !sawDecision; i++ {
		ev := nextEvent(t, br)
		if ev.Type == apiv1.EventFlowDecision {
			sawDecision = true
			var d registry.FlowDecision
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				t.Fatalf("decode decision payload: %v", err)
			}
			if d.ID != "clicks" || d.Layer == "" {
				t.Fatalf("decision payload = %+v", d)
			}
		}
	}
	if !sawDecision {
		t.Fatal("no flow.decision event observed after a 10m advance")
	}
}

func TestWatchTypesFilter(t *testing.T) {
	s, reg := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	br := startStream(t, ctx, ts, "/v1/flows/clicks/watch?types="+apiv1.EventFlowAdvanced, nil)
	f, _ := reg.Get("clicks")
	for i := 0; i < 3; i++ {
		if _, err := f.Advance(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if ev := nextEvent(t, br); ev.Type != apiv1.EventFlowAdvanced {
			t.Fatalf("event %d type = %q, want only %q", i, ev.Type, apiv1.EventFlowAdvanced)
		}
	}
}

func TestWatchSSEFraming(t *testing.T) {
	s, reg := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// No Accept header: the default framing is Server-Sent Events.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/flows/clicks/watch?types="+apiv1.EventFlowAdvanced, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("content type = %q, want text/event-stream", ct)
	}

	f, _ := reg.Get("clicks")
	if _, err := f.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(resp.Body)
	var id, event, data string
	helloSeen := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event == "hello":
			// The opening cursor record: it must carry an id.
			if id == "" {
				t.Fatal("sse hello frame carries no id")
			}
			helloSeen = true
			id, event, data = "", "", ""
		case line == "" && event != "":
			goto done
		}
	}
done:
	if !helloSeen {
		t.Fatal("sse stream did not open with a hello frame")
	}
	if event != apiv1.EventFlowAdvanced {
		t.Fatalf("sse event = %q, want %q", event, apiv1.EventFlowAdvanced)
	}
	if !strings.HasPrefix(id, "f") {
		t.Fatalf("sse id = %q, want f-prefixed cursor", id)
	}
	var ev apiv1.Event
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("sse data not an event: %v (%q)", err, data)
	}
	if ev.Type != apiv1.EventFlowAdvanced || ev.ID != id {
		t.Fatalf("sse data event = %+v, id line %q", ev, id)
	}
}

func TestWatchResumeAfterReconnect(t *testing.T) {
	s, reg := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	f, _ := reg.Get("clicks")

	// First connection: replay from the beginning of the ring.
	ctx1, cancel1 := context.WithTimeout(context.Background(), 10*time.Second)
	br := startStream(t, ctx1, ts, "/v1/flows/clicks/watch?types="+apiv1.EventFlowAdvanced+"&after=0", nil)
	if _, err := f.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	first := nextEvent(t, br)
	cursor := first.ID
	if cursor == "" {
		t.Fatal("first event carries no cursor")
	}
	cancel1() // drop the connection

	// More events while disconnected.
	if _, err := f.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	// Reconnect with Last-Event-ID: exactly the missed advances arrive,
	// no duplicates of the already-seen event and no gap marker.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	br2 := startStream(t, ctx2, ts, "/v1/flows/clicks/watch?types="+apiv1.EventFlowAdvanced,
		map[string]string{"Last-Event-ID": cursor})
	var got []apiv1.Event
	for len(got) < 2 {
		ev := nextEvent(t, br2)
		if ev.Type == apiv1.EventDropped {
			t.Fatalf("unexpected drop marker on resume: %+v", ev)
		}
		got = append(got, ev)
	}
	var firstAdv, resumedAdv registry.FlowAdvanced
	if err := json.Unmarshal(first.Data, &firstAdv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got[0].Data, &resumedAdv); err != nil {
		t.Fatal(err)
	}
	if resumedAdv.Ticks <= firstAdv.Ticks {
		t.Fatalf("resumed event ticks %d not after first event ticks %d", resumedAdv.Ticks, firstAdv.Ticks)
	}
}

func TestWatchResumeBeyondRingEmitsDropMarker(t *testing.T) {
	s, reg := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Roll the ring over: more publishes than the ring retains.
	bus := reg.Events()
	for i := 0; i < 1100; i++ {
		bus.Publish(registry.EventFlowAdvanced, "clicks", registry.FlowAdvanced{ID: "clicks", Ticks: i})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	br := startStream(t, ctx, ts, "/v1/flows/clicks/watch?after=0", nil)
	ev := nextEvent(t, br)
	if ev.Type != apiv1.EventDropped {
		t.Fatalf("first event after over-rotated resume = %q, want %q", ev.Type, apiv1.EventDropped)
	}
	var d apiv1.DroppedEvent
	if err := json.Unmarshal(ev.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Count == 0 {
		t.Fatal("drop marker carries zero count")
	}
	// Replayed history follows the marker.
	if ev := nextEvent(t, br); ev.Type != apiv1.EventFlowAdvanced {
		t.Fatalf("event after drop marker = %q, want %q", ev.Type, apiv1.EventFlowAdvanced)
	}
}

func TestWatchSlowSubscriberGetsDropMarker(t *testing.T) {
	s, reg := newTestServer(t, WithWatchHeartbeat(10*time.Millisecond))
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// A one-event buffer: any publish burst outpaces the writer goroutine.
	br := startStream(t, ctx, ts, "/v1/flows/clicks/watch?buffer=1", nil)

	// Publish bursts from the test while reading concurrently; stop once a
	// drop marker has been observed.
	bus := reg.Events()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			bus.Publish(registry.EventFlowAdvanced, "clicks", registry.FlowAdvanced{ID: "clicks", Ticks: i})
		}
	}()
	defer wg.Wait()
	defer close(stop)

	for {
		ev := nextEvent(t, br)
		if ev.Type == apiv1.EventDropped {
			var d apiv1.DroppedEvent
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				t.Fatal(err)
			}
			if d.Count == 0 {
				t.Fatal("drop marker carries zero count")
			}
			return // success
		}
	}
}

func TestWatchMuxStreamsFlowsAndExperiments(t *testing.T) {
	s, reg := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	br := startStream(t, ctx, ts, "/v1/watch", nil)

	// One flow advance and one experiment on the same stream.
	f, _ := reg.Get("clicks")
	if _, err := f.Advance(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var created apiv1.ExperimentSummary
	rec := do(t, s, http.MethodPost, "/v1/experiments",
		`{"spec": {"name": "mux-exp", "duration": "1m", "step": "10s"}}`, &created)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create experiment: %d (%s)", rec.Code, rec.Body.String())
	}

	sawFlow, sawExperiment := false, false
	sawCombinedCursor := false
	for !(sawFlow && sawExperiment) {
		ev := nextEvent(t, br)
		switch {
		case strings.HasPrefix(ev.Type, "flow."):
			sawFlow = true
		case strings.HasPrefix(ev.Type, "experiment."):
			sawExperiment = true
		}
		if strings.Contains(ev.ID, ".") && strings.Contains(ev.ID, "f") && strings.Contains(ev.ID, "x") {
			sawCombinedCursor = true
		}
	}
	if !sawCombinedCursor {
		t.Fatal("multiplexed stream never emitted a combined f/x cursor")
	}
}

// TestWatchExperimentWhileRunning streams a live experiment to completion
// while a flow advances concurrently — the read plane's -race coverage.
func TestWatchExperimentWhileRunning(t *testing.T) {
	s, reg := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var created apiv1.ExperimentSummary
	rec := do(t, s, http.MethodPost, "/v1/experiments",
		`{"spec": {"name": "watched", "duration": "2m", "step": "10s", "seeds": [0, 1]}}`, &created)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create experiment: %d (%s)", rec.Code, rec.Body.String())
	}

	// Concurrent writer load on the other bus while the stream runs.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f, _ := reg.Get("clicks")
		for i := 0; i < 10; i++ {
			if _, err := f.Advance(time.Minute); err != nil {
				return
			}
		}
	}()
	defer wg.Wait()

	br := startStream(t, ctx, ts, "/v1/experiments/watched/watch?after=0", nil)
	started, finished := 0, 0
	for {
		ev := nextEvent(t, br)
		switch ev.Type {
		case lab.EventTrialStarted:
			started++
		case lab.EventTrialFinished:
			finished++
		case lab.EventExperimentState:
			var state lab.ExperimentEvent
			if err := json.Unmarshal(ev.Data, &state); err != nil {
				t.Fatal(err)
			}
			if state.Status == lab.StatusRunning {
				continue
			}
			if state.Status != lab.StatusCompleted {
				t.Fatalf("experiment settled as %q", state.Status)
			}
			if started != 2 || finished != 2 {
				t.Fatalf("observed %d started / %d finished trial events, want 2/2", started, finished)
			}
			return
		}
	}
}

func TestWatchHeartbeat(t *testing.T) {
	s, _ := newTestServer(t, WithWatchHeartbeat(20*time.Millisecond))
	ts := httptest.NewServer(s)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// SSE heartbeats are comment lines.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/flows/clicks/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	// Skip the opening hello frame (id/event/data/blank), then the idle
	// stream's next traffic must be a heartbeat comment.
	sawComment := false
	for i := 0; i < 10 && !sawComment; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		sawComment = strings.HasPrefix(line, ":")
	}
	if !sawComment {
		t.Fatal("idle SSE stream produced no heartbeat comment")
	}

	// NDJSON streams open with a cursor-bearing hello, then heartbeats
	// that also carry the cursor.
	br2 := startStream(t, ctx, ts, "/v1/flows/clicks/watch?format=ndjson", nil)
	var hello, hb apiv1.Event
	for _, target := range []*apiv1.Event{&hello, &hb} {
		line, err := br2.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(line), target); err != nil {
			t.Fatal(err)
		}
	}
	if hello.Type != apiv1.EventHello || hello.ID == "" {
		t.Fatalf("first NDJSON record = %+v, want cursor-bearing hello", hello)
	}
	if hb.Type != apiv1.EventHeartbeat || hb.ID == "" {
		t.Fatalf("second idle NDJSON record = %+v, want cursor-bearing heartbeat", hb)
	}
}

func TestWatchValidation(t *testing.T) {
	s, _ := newTestServer(t)
	for path, wantCode := range map[string]apiv1.ErrorCode{
		"/v1/flows/nope/watch":             apiv1.CodeNotFound,
		"/v1/experiments/nope/watch":       apiv1.CodeNotFound,
		"/v1/flows/clicks/watch?after=bad": apiv1.CodeInvalidArgument,
		"/v1/flows/clicks/watch?buffer=-1": apiv1.CodeInvalidArgument,
		"/v1/watch?after=q9":               apiv1.CodeInvalidArgument,
	} {
		status := http.StatusBadRequest
		if wantCode == apiv1.CodeNotFound {
			status = http.StatusNotFound
		}
		rec := get(t, s, path, nil)
		wantEnvelope(t, rec, status, wantCode)
	}
}

// FuzzParseCursor holds the resume-cursor parser to three rules: it never
// panics; an accepted cursor, re-rendered component by component the way
// streamEvents renders one (flows first), parses back to the same map;
// and a bare number sets both the flow and experiment components.
func FuzzParseCursor(f *testing.F) {
	for _, seed := range []string{"", "f12", "x4", "f12.x4", "12", "f", ".", "f1..x2", "f18446744073709551616"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseCursor(s)
		if !ok {
			return
		}
		var rendered []byte
		for _, prefix := range []byte{cursorFlows, cursorExperiments} {
			if seq, present := got[prefix]; present {
				rendered = appendCursor(rendered, prefix, seq)
			}
		}
		back, ok := parseCursor(string(rendered))
		if !ok || !maps.Equal(back, got) {
			t.Fatalf("parseCursor(%q) = %v, rendered %q, parsed back to %v (ok=%v)", s, got, rendered, back, ok)
		}
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			want := map[byte]uint64{cursorFlows: n, cursorExperiments: n}
			if !maps.Equal(got, want) {
				t.Fatalf("bare cursor %q parsed to %v, want %v", s, got, want)
			}
		}
	})
}
