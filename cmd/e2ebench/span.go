package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/eventbus"
	"repro/internal/flow"
	"repro/internal/lab"
	"repro/internal/persist"
	"repro/internal/sim"
)

// Spans are recorded only from bench files, at the seams the daemon's code
// already offers: an http.RoundTripper (client), an http.Handler wrapped
// around the Server (httpapi), a decorator around the ControlLog
// (persist), a bus subscription and the stream client (eventbus,
// httpapi.watch) and a probe job on the pacer grid (sched). They stay in
// memory and are written out when the run ends.

// span is one timed interval at a layer boundary. Spans of one request
// (or one tick event) share Req; Parent names the span that caused it.
type span struct {
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // request class, on client spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Req    string `json:"req"`
}

const maxSpans = 400000 // a fleet run records about 5k spans a second

type recorder struct {
	on  atomic.Bool
	seq atomic.Uint64

	mu    sync.Mutex
	spans []span
	open  map[string]string // flow id -> id of the in-flight request mutating it
}

func newRecorder() *recorder {
	return &recorder{spans: make([]span, 0, 1<<16), open: map[string]string{}}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

func (r *recorder) setOpen(flowID, req string) {
	r.mu.Lock()
	if req == "" {
		delete(r.open, flowID)
	} else {
		r.open[flowID] = req
	}
	r.mu.Unlock()
}

func (r *recorder) openFor(flowID string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open[flowID]
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeTrace dumps the spans as one JSON document.
func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- client seam ---

// opInfo rides the request context from the generator to the transport.
type opInfo struct{ class, flow string }

type opInfoKey struct{}

func withOpInfo(ctx context.Context, o op) context.Context {
	return context.WithValue(ctx, opInfoKey{}, opInfo{class: o.class, flow: o.flow})
}

// spanTransport mints X-Request-ID and records the client span: request
// written to response body closed. Watch streams are not requests in this
// sense and pass through.
type spanTransport struct {
	rt  http.RoundTripper
	rec *recorder
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() || strings.HasSuffix(req.URL.Path, "/watch") {
		return t.rt.RoundTrip(req)
	}
	info, _ := req.Context().Value(opInfoKey{}).(opInfo)
	id := "b" + strconv.FormatUint(t.rec.seq.Add(1), 10)
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-ID", id)
	if info.flow != "" {
		t.rec.setOpen(info.flow, id)
	}
	start := time.Now()
	done := func() {
		t.rec.add(span{Name: "client", Class: info.class, Start: start.UnixNano(), End: time.Now().UnixNano(), Req: id})
		if info.flow != "" {
			t.rec.setOpen(info.flow, "")
		}
	}
	resp, err := t.rt.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

func (t *spanTransport) CloseIdleConnections() {
	if c, ok := t.rt.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// --- httpapi seam ---

// spanHandler wraps the Server: one httpapi span per request that carries
// a bench-minted id.
type spanHandler struct {
	h   http.Handler
	rec *recorder
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" || !s.rec.on.Load() {
		s.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	s.h.ServeHTTP(w, r)
	s.rec.add(span{Name: "httpapi", Start: start.UnixNano(), End: time.Now().UnixNano(), Parent: "client", Req: id})
}

// --- persist seam ---

// spanWAL decorates the ControlLog behind the registry's and the lab's
// WAL hooks. Every append is timed (the durations feed
// persist.append_p50_us whether spans are on or not); with spans on, each
// becomes a persist span parented to the open request on that flow.
type spanWAL struct {
	inner *persist.ControlLog
	rec   *recorder

	mu    sync.Mutex
	durUS []float64
}

func (w *spanWAL) timed(flowID string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	w.mu.Lock()
	w.durUS = append(w.durUS, float64(end.Sub(start))/1e3)
	w.mu.Unlock()
	if w.rec != nil && w.rec.on.Load() {
		s := span{Name: "persist", Start: start.UnixNano(), End: end.UnixNano()}
		if req := w.rec.openFor(flowID); req != "" {
			s.Req, s.Parent = req, "httpapi"
		}
		w.rec.add(s)
	}
	return err
}

func (w *spanWAL) durations() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]float64(nil), w.durUS...)
}

// last returns the duration of the newest append, for callers that time
// the operation around it on the same goroutine.
func (w *spanWAL) last() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.durUS) == 0 {
		return 0
	}
	return w.durUS[len(w.durUS)-1]
}

func (w *spanWAL) FlowCreated(id string, spec flow.Spec, opts sim.Options) error {
	return w.timed(id, func() error { return w.inner.FlowCreated(id, spec, opts) })
}

func (w *spanWAL) FlowPaced(id string, pace float64, tick time.Duration) error {
	return w.timed(id, func() error { return w.inner.FlowPaced(id, pace, tick) })
}

func (w *spanWAL) FlowTuned(id string, kind flow.LayerKind, ref, deadBand *float64, window *time.Duration) error {
	return w.timed(id, func() error { return w.inner.FlowTuned(id, kind, ref, deadBand, window) })
}

func (w *spanWAL) FlowDeleted(id string) error {
	return w.timed(id, func() error { return w.inner.FlowDeleted(id) })
}

func (w *spanWAL) ExperimentSubmitted(id string, spec lab.Spec) error {
	return w.timed("", func() error { return w.inner.ExperimentSubmitted(id, spec) })
}

func (w *spanWAL) ExperimentCancelled(id string) error {
	return w.timed("", func() error { return w.inner.ExperimentCancelled(id) })
}

func (w *spanWAL) ExperimentFinished(id string, status lab.Status) error {
	return w.timed("", func() error { return w.inner.ExperimentFinished(id, status) })
}

func (w *spanWAL) ExperimentDeleted(id string) error {
	return w.timed("", func() error { return w.inner.ExperimentDeleted(id) })
}

// --- event seams ---

// busTap is an in-process subscriber on the registry's bus: every tick
// event is stamped against Event.At when it comes off the subscription,
// which is the event bus's share of delivery.
type busTap struct {
	sub  *eventbus.Subscription
	rec  *recorder
	done chan struct{}

	mu        sync.Mutex
	deliverUS []float64
}

func tapBus(bus *eventbus.Bus, rec *recorder) *busTap {
	t := &busTap{rec: rec, done: make(chan struct{})}
	t.sub = bus.Subscribe(4096, eventbus.Live, func(ev eventbus.Event) bool { return ev.Type == apiv1.EventFlowAdvanced })
	go func() {
		defer close(t.done)
		for ev := range t.sub.Events() {
			recv := time.Now()
			t.mu.Lock()
			t.deliverUS = append(t.deliverUS, float64(recv.Sub(ev.At))/1e3)
			t.mu.Unlock()
			if rec.on.Load() {
				rec.add(span{Name: "eventbus", Start: ev.At.UnixNano(), End: recv.UnixNano(), Req: "e" + strconv.FormatUint(ev.Seq, 10)})
			}
		}
	}()
	return t
}

// take returns and clears the delivery times gathered so far.
func (t *busTap) take() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.deliverUS
	t.deliverUS = nil
	return out
}

func (t *busTap) close() {
	t.sub.Close()
	<-t.done
}

// watchSpans is the stream client's half: the same event, stamped when the
// SDK hands it to the watcher.
func watchSpans(rec *recorder) func(apiv1.Event, time.Time) {
	return func(ev apiv1.Event, recv time.Time) {
		if ev.Type != apiv1.EventFlowAdvanced || !rec.on.Load() {
			return
		}
		// The multiplexed cursor reads "f<seq>"; the flow bus comes first.
		seq := strings.TrimPrefix(ev.ID, "f")
		if i := strings.IndexByte(seq, '.'); i >= 0 {
			seq = seq[:i]
		}
		rec.add(span{Name: "httpapi.watch", Start: ev.At.UnixNano(), End: recv.UnixNano(), Parent: "eventbus", Req: "e" + seq})
	}
}

// --- sched seam ---

// probe is a periodic job on the pacer grid: how late does the scheduler
// run a flow-class job that costs nothing? The plane runs probeCount of
// them under different ids, which the scheduler spreads over the interval.
const probeCount = 8

type probe struct {
	id    int
	mu    sync.Mutex
	n     int
	runs  []time.Time
	slots []int // interval index of each run
}

func (p *probe) tick(n int) error {
	now := time.Now()
	p.mu.Lock()
	if len(p.runs) > 0 {
		p.n += n
	}
	p.runs = append(p.runs, now)
	p.slots = append(p.slots, p.n)
	p.mu.Unlock()
	return nil
}

// lags returns each firing's lateness beyond the best firing seen, in
// microseconds, and the same as sched spans (ideal instant to run).
func (p *probe) lags() (us []float64, spans []span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.runs) == 0 {
		return nil, nil
	}
	off := make([]time.Duration, len(p.runs))
	best := time.Duration(1 << 62)
	for i, t := range p.runs {
		off[i] = t.Sub(p.runs[0]) - time.Duration(p.slots[i])*wallTick
		best = min(best, off[i])
	}
	for i, t := range p.runs {
		lag := off[i] - best
		us = append(us, float64(lag)/1e3)
		spans = append(spans, span{Name: "sched", Start: t.Add(-lag).UnixNano(), End: t.UnixNano(), Req: "p" + strconv.Itoa(p.id) + "." + strconv.Itoa(p.slots[i])})
	}
	return us, spans
}
