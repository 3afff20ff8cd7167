package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/eventbus"
	"repro/internal/registry"
)

// The reference framing: each record is json.Marshal of the apiv1.Event,
// its payload marshalled separately into Data, and framed with fmt as an
// NDJSON line or an SSE event. The stream's single-pass encoder must
// produce exactly these bytes.

func referenceEvent(id, typ, topic string, at time.Time, payload any) (apiv1.Event, error) {
	var data json.RawMessage
	if payload != nil {
		var err error
		if data, err = json.Marshal(payload); err != nil {
			return apiv1.Event{}, err
		}
	}
	return apiv1.Event{ID: id, Type: typ, Topic: topic, At: at, Data: data}, nil
}

func referenceFrame(ndjson bool, ev apiv1.Event) ([]byte, error) {
	data, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	if ndjson {
		return append(data, '\n'), nil
	}
	var b bytes.Buffer
	if ev.ID != "" {
		fmt.Fprintf(&b, "id: %s\n", ev.ID)
	}
	fmt.Fprintf(&b, "event: %s\ndata: %s\n\n", ev.Type, data)
	return b.Bytes(), nil
}

// fuzzPayload picks a payload shape for the fuzz target: none, a string,
// raw bytes that may not be JSON at all, a registry payload carrying the
// event's time, or a typed nil (which marshals to null).
func fuzzPayload(kind uint8, raw []byte, at time.Time) any {
	switch kind % 5 {
	case 1:
		return string(raw)
	case 2:
		return json.RawMessage(raw)
	case 3:
		return registry.FlowDecision{ID: string(raw), Layer: "ingestion", At: at, Measured: 0.5, Note: string(raw)}
	case 4:
		return (*apiv1.DroppedEvent)(nil)
	}
	return nil
}

func FuzzWatchFrame(f *testing.F) {
	f.Add("f12.x4", "flow.advanced", "clicks", []byte(`{"ticks":3}`), uint8(2), int64(1503921600), int64(5), int32(0))
	f.Add("", "dropped", "", []byte("7"), uint8(1), int64(0), int64(0), int32(3600))
	f.Add("f0", "hello", "", []byte(nil), uint8(0), int64(0), int64(0), int32(0))
	f.Add("id<>&", "t\n\"\\", "a<b>&\"c\x00\x1f\u2028\u2029\x7f", []byte("ünï\xff"), uint8(3), int64(-62135596800), int64(0), int32(-45296))
	f.Add("x", "y", "z", []byte("{ \"a\" : [1, 2] }"), uint8(2), int64(253402300800), int64(0), int32(0))
	f.Add("x", "y", "z", []byte("not json"), uint8(2), int64(1), int64(999999999), int32(86400))
	f.Fuzz(func(t *testing.T, id, typ, topic string, raw []byte, kind uint8, sec, nsec int64, offset int32) {
		at := time.Unix(sec, nsec).In(time.FixedZone("", int(offset)))
		if kind&0x80 != 0 {
			at = time.Time{}
		}
		payload := fuzzPayload(kind, raw, at)
		want, wantErr := referenceEvent(id, typ, topic, at, payload)
		for _, ndjson := range []bool{true, false} {
			var wantFrame []byte
			if wantErr == nil {
				wantFrame, wantErr = referenceFrame(ndjson, want)
			}
			prefix := []byte("previous record\n")
			got, err := appendFrame(bytes.Clone(prefix), ndjson, []byte(id), typ, topic, at, payload)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("ndjson=%v: encoder error %v, json.Marshal error %v", ndjson, err, wantErr)
			}
			if !bytes.HasPrefix(got, prefix) {
				t.Fatalf("ndjson=%v: encoder clobbered the bytes before its record: %q", ndjson, got)
			}
			if got = got[len(prefix):]; !bytes.Equal(got, wantFrame) {
				t.Fatalf("ndjson=%v:\n got %q\nwant %q", ndjson, got, wantFrame)
			}
		}
	})
}

// streamRecorder is a streaming ResponseWriter that counts Flush calls.
// With a gate set, the first Write closes entered and then waits for the
// gate to close: the stream stalls with its subscription open, like a
// client that stopped reading.
type streamRecorder struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	flushes int
	gate    chan struct{}
	entered chan struct{}
}

func newStreamRecorder() *streamRecorder {
	return &streamRecorder{header: http.Header{}, entered: make(chan struct{})}
}

func (r *streamRecorder) Header() http.Header { return r.header }
func (r *streamRecorder) WriteHeader(int)     {}

func (r *streamRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	gate := r.gate
	r.gate = nil
	r.mu.Unlock()
	if gate != nil {
		close(r.entered)
		<-gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body.Write(p)
}

func (r *streamRecorder) Flush() {
	r.mu.Lock()
	r.flushes++
	r.mu.Unlock()
}

func (r *streamRecorder) snapshot() ([]byte, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return bytes.Clone(r.body.Bytes()), r.flushes
}

// serveStream runs one watch request against s in the background; stop
// cancels it and waits for the handler to return.
func serveStream(s *Server, path string, rec *streamRecorder) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
	}()
	return func() { cancel(); <-done }
}

// waitBody polls until the stream's body satisfies ok.
func waitBody(t *testing.T, rec *streamRecorder, what string, ok func([]byte) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if body, _ := rec.snapshot(); ok(body) {
			return
		}
		if time.Now().After(deadline) {
			body, _ := rec.snapshot()
			t.Fatalf("timed out waiting for %s; body tail %q", what, body[max(0, len(body)-400):])
		}
		time.Sleep(time.Millisecond)
	}
}

// publishEventSet publishes every registry event type over topics that
// need escaping: HTML-significant characters, non-ASCII, control
// characters and invalid UTF-8.
func publishEventSet(bus *eventbus.Bus) {
	topics := []string{"clicks", `a<b>&"c"`, "ünïcødé/日本語", "ctl\x00\x01\x1f\t\n\u2028\u2029\x7f", "bad\xff\xfeutf8"}
	at := time.Date(2017, 8, 28, 12, 0, 0, 123456789, time.UTC)
	for i := 0; i < 60; i++ {
		topic := topics[i%len(topics)]
		switch i % 6 {
		case 0:
			bus.Publish(registry.EventFlowCreated, topic, registry.FlowLifecycle{ID: topic, Name: "n<" + topic + ">"})
		case 1:
			bus.Publish(registry.EventFlowAdvanced, topic, registry.FlowAdvanced{ID: topic, Advanced: "15m0s",
				SimTime: at.Add(time.Duration(i) * time.Minute), Ticks: i, ViolationRate: 1.0 / 3, TotalCost: 1e21 + float64(i)})
		case 2:
			bus.Publish(registry.EventFlowDecision, topic, registry.FlowDecision{ID: topic, Layer: "storage-reads",
				At: at, Measured: math.SmallestNonzeroFloat64, Ref: 0.7, OldU: 2, NewU: 3, Applied: i%4 == 0, Note: "cap <10> & \"clamped\""})
		case 3:
			bus.Publish(registry.EventFlowPace, topic, registry.FlowPace{ID: topic, Running: i%4 == 1, Pace: 60, Error: "advance: \x00 broke"})
		case 4:
			bus.Publish(registry.EventFlowDeleted, topic, registry.FlowLifecycle{ID: topic})
		case 5:
			bus.Publish(registry.EventFlowCreated, topic, nil)
		}
	}
}

// splitRecords cuts a stream body into its records.
func splitRecords(t *testing.T, ndjson bool, body []byte) [][]byte {
	t.Helper()
	sep := []byte("\n\n")
	if ndjson {
		sep = []byte("\n")
	}
	var out [][]byte
	for len(body) > 0 {
		i := bytes.Index(body, sep)
		if i < 0 {
			t.Fatalf("stream ends inside a record: %q", body)
		}
		out = append(out, body[:i+len(sep)])
		body = body[i+len(sep):]
	}
	return out
}

// recordEvent decodes the event a record carries (ok false for an SSE
// heartbeat comment).
func recordEvent(t *testing.T, ndjson bool, rec []byte) (apiv1.Event, bool) {
	t.Helper()
	data := rec
	if !ndjson {
		if rec[0] == ':' {
			return apiv1.Event{}, false
		}
		i := bytes.Index(rec, []byte("data: "))
		if i < 0 {
			t.Fatalf("SSE record without data: %q", rec)
		}
		data = rec[i+len("data: "):]
	}
	var ev apiv1.Event
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatalf("record %q: %v", rec, err)
	}
	return ev, true
}

// TestWatchStreamMatchesReferenceFraming replays a fixed event set through
// ?after=0 to a subscriber that stalls (so live events overflow its
// one-slot buffer and produce a drop marker) and then idles into a
// heartbeat. Every record must equal the reference framing of the event
// the stream owes at that point; only the drop marker's wall-clock "at"
// and the heartbeats' positions come from the stream itself.
func TestWatchStreamMatchesReferenceFraming(t *testing.T) {
	const live = 4 // published while the client stalls: 1 fits, 3 drop
	for _, ndjson := range []bool{true, false} {
		t.Run(map[bool]string{true: "ndjson", false: "sse"}[ndjson], func(t *testing.T) {
			s, reg := newTestServer(t, WithWatchHeartbeat(50*time.Millisecond))
			bus := reg.Events()
			publishEventSet(bus)
			path := "/v1/watch?after=0&buffer=1"
			if ndjson {
				path += "&format=ndjson"
			}
			rec := newStreamRecorder()
			gate := make(chan struct{})
			rec.gate = gate
			stop := serveStream(s, path, rec)
			defer stop()

			<-rec.entered
			replayed := bus.Seq()
			for i := 0; i < live; i++ {
				bus.Publish(registry.EventFlowAdvanced, "clicks", registry.FlowAdvanced{ID: "clicks", Ticks: 1000 + i})
			}
			close(gate)
			lastID := fmt.Sprintf("f%d.x0", replayed+1)
			hbMark := []byte(`"type":"heartbeat"`)
			if !ndjson {
				hbMark = []byte(": hb ")
			}
			waitBody(t, rec, "the last event and a heartbeat after it", func(b []byte) bool {
				i := bytes.Index(b, []byte(`"id":"`+lastID+`"`))
				return i >= 0 && bytes.Contains(b[i:], hbMark)
			})
			stop()
			body, _ := rec.snapshot()

			// The events the stream owes, from the bus's own ring.
			probe := bus.Subscribe(1, 0, nil)
			var owed []apiv1.Event
			for len(probe.Events()) > 0 {
				ev := <-probe.Events()
				if ev.Seq > replayed+1 {
					continue // dropped on the stalled subscriber
				}
				want, err := referenceEvent(fmt.Sprintf("f%d.x0", ev.Seq), ev.Type, ev.Topic, ev.At, ev.Data)
				if err != nil {
					t.Fatal(err)
				}
				owed = append(owed, want)
			}
			probe.Close()
			pub := bus.Published() + s.lab.Events().Published()
			drop := bus.TotalDropped() + s.lab.Events().TotalDropped()

			// The stream owes, in order: the hello, the drop marker for the
			// live events the stalled subscriber lost, then every event up
			// to the one live event that fitted. Heartbeats may fall
			// anywhere.
			hello := apiv1.Event{ID: "f0.x0", Type: apiv1.EventHello}
			owed = append([]apiv1.Event{hello, {Type: apiv1.EventDropped}}, owed...)
			cursor, heartbeats := hello.ID, 0
			var want bytes.Buffer
			for i, r := range splitRecords(t, ndjson, body) {
				got, isEvent := recordEvent(t, ndjson, r)
				var exp apiv1.Event
				switch {
				case !isEvent || got.Type == apiv1.EventHeartbeat:
					heartbeats++
					if !ndjson {
						fmt.Fprintf(&want, ": hb pub=%d drop=%d\n\n", pub, drop)
						continue
					}
					exp = apiv1.Event{ID: cursor, Type: apiv1.EventHeartbeat}
				case len(owed) == 0:
					t.Fatalf("record %d %q: the stream owes nothing more", i, r)
				default:
					exp, owed = owed[0], owed[1:]
					if exp.Type == apiv1.EventDropped {
						// Stamped with the server's wall clock: only "at"
						// comes from the stream.
						var err error
						if exp, err = referenceEvent("", apiv1.EventDropped, "", got.At, apiv1.DroppedEvent{Count: live - 1}); err != nil {
							t.Fatal(err)
						}
					}
					if exp.ID != "" {
						cursor = exp.ID
					}
				}
				frame, err := referenceFrame(ndjson, exp)
				if err != nil {
					t.Fatal(err)
				}
				want.Write(frame)
			}
			if len(owed) > 0 || heartbeats == 0 {
				t.Fatalf("stream ended owing %d records (%d heartbeats)", len(owed), heartbeats)
			}
			if !bytes.Equal(body, want.Bytes()) {
				got, exp := splitRecords(t, ndjson, body), splitRecords(t, ndjson, want.Bytes())
				for i := range min(len(got), len(exp)) {
					if !bytes.Equal(got[i], exp[i]) {
						t.Fatalf("record %d:\n got %q\nwant %q", i, got[i], exp[i])
					}
				}
				t.Fatalf("body has %d records, reference %d", len(got), len(exp))
			}
		})
	}
}

// TestWatchReplayFlushesPerBatch replays N retained events and counts
// Flush calls: the header flush, the hello, then one per watchBatchMax
// events.
func TestWatchReplayFlushesPerBatch(t *testing.T) {
	for _, ndjson := range []bool{true, false} {
		t.Run(map[bool]string{true: "ndjson", false: "sse"}[ndjson], func(t *testing.T) {
			s, reg := newTestServer(t, WithWatchHeartbeat(time.Hour))
			bus := reg.Events()
			for range 5 {
				publishEventSet(bus)
			}
			n := bus.Seq()
			path := "/v1/watch?after=0"
			if ndjson {
				path += "&format=ndjson"
			}
			rec := newStreamRecorder()
			stop := serveStream(s, path, rec)
			defer stop()
			lastID := []byte(fmt.Sprintf(`"id":"f%d.x0"`, n))
			waitBody(t, rec, "the last replayed event", func(b []byte) bool { return bytes.Contains(b, lastID) })
			stop()

			body, flushes := rec.snapshot()
			if got := len(splitRecords(t, ndjson, body)); got != int(n)+1 {
				t.Fatalf("stream carried %d records, want hello + %d events", got, n)
			}
			bound := (int(n)+watchBatchMax-1)/watchBatchMax + 2
			if flushes > bound {
				t.Fatalf("%d flushes for a %d-event replay, want at most %d (one per %d events, plus header and hello)",
					flushes, n, bound, watchBatchMax)
			}
			if strings.Count(string(body), `"type":"dropped"`) != 0 {
				t.Fatal("replay within the ring produced a drop marker")
			}
		})
	}
}
