package httpapi

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/eventbus"
	"repro/internal/lab"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Watch transport: the server-push half of the v1 read plane. Flow and
// experiment state changes stream to clients as Server-Sent Events
// (default) or NDJSON (Accept: application/x-ndjson or ?format=ndjson),
// with
//
//   - per-subscriber bounded buffers — a slow consumer gets an explicit
//     "dropped" marker with a count instead of back-pressuring the
//     simulation tick path,
//   - heartbeats so intermediaries and clients can detect dead streams,
//   - resume via the standard Last-Event-ID header (or ?after=): the
//     event id is an opaque cursor ("f12", "x4" or "f12.x4" on the
//     multiplexed stream) replayed from a bounded ring, with the gap
//     surfaced as a dropped marker when the ring no longer reaches back
//     far enough,
//   - ?types= filters (comma-separated event types).
//
// GET /v1/flows/{id}/watch streams one flow, GET /v1/experiments/{id}/watch
// one experiment, and GET /v1/watch multiplexes any set of flows and
// experiments (?flows=a,b&experiments=c, "*" or absent for all).

// defaultHeartbeat is the keep-alive interval when the server is built
// without WithWatchHeartbeat.
const defaultHeartbeat = 15 * time.Second

// watchBufferMax bounds the ?buffer= per-subscriber queue override.
const watchBufferMax = 4096

// watchBatchMax bounds how many bus events one write of a watch stream
// carries: the one the stream woke for plus those already queued behind
// it. Drop markers and heartbeats ride along without counting.
const watchBatchMax = 64

// errSubscriptionClosed ends a watch stream whose bus subscription closed.
var errSubscriptionClosed = errors.New("watch: subscription closed")

// Cursor prefixes: the registry bus and the lab bus each have their own
// sequence space, so multiplexed cursors carry one component per bus.
const (
	cursorFlows       = 'f'
	cursorExperiments = 'x'
)

// streamSource is one bus feeding a watch stream.
type streamSource struct {
	bus    *eventbus.Bus
	prefix byte
	match  func(eventbus.Event) bool
}

// parseCursor decodes an opaque resume cursor: dot-separated components,
// each a prefix letter plus a decimal sequence number. A bare number
// applies to every source (the single-bus endpoints emit those prefixed,
// but accept both).
func parseCursor(s string) (map[byte]uint64, bool) {
	out := make(map[byte]uint64)
	if s == "" {
		return out, true
	}
	for _, part := range strings.Split(s, ".") {
		if part == "" {
			return nil, false
		}
		prefix := byte(0)
		digits := part
		if part[0] == cursorFlows || part[0] == cursorExperiments {
			prefix, digits = part[0], part[1:]
		}
		n, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return nil, false
		}
		if prefix == 0 {
			out[cursorFlows], out[cursorExperiments] = n, n
		} else {
			out[prefix] = n
		}
	}
	return out, true
}

// appendCursor appends one bus's component to a cursor being rendered:
// a '.' unless it is the first, the prefix letter, the sequence number.
func appendCursor(cur []byte, prefix byte, seq uint64) []byte {
	if len(cur) > 0 {
		cur = append(cur, '.')
	}
	cur = append(cur, prefix)
	return strconv.AppendUint(cur, seq, 10)
}

// typeFilter builds a match predicate from ?types= (nil: everything).
func typeFilter(raw string) map[string]bool {
	if raw == "" {
		return nil
	}
	set := make(map[string]bool)
	for _, t := range strings.Split(raw, ",") {
		if t = strings.TrimSpace(t); t != "" {
			set[t] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	return set
}

// topicSet parses a comma-separated topic list; "*" (or empty with
// present=true) selects every topic.
func topicSet(raw string) map[string]bool {
	if raw == "" || raw == "*" {
		return nil
	}
	set := make(map[string]bool)
	for _, t := range strings.Split(raw, ",") {
		if t = strings.TrimSpace(t); t != "" && t != "*" {
			set[t] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	return set
}

func matchEvent(topics, types map[string]bool) func(eventbus.Event) bool {
	return func(ev eventbus.Event) bool {
		if topics != nil && !topics[ev.Topic] {
			return false
		}
		if types != nil && !types[ev.Type] {
			return false
		}
		return true
	}
}

func (s *Server) handleWatchFlow(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	types := typeFilter(r.URL.Query().Get("types"))
	s.streamEvents(w, r, []streamSource{{
		bus:    s.reg.Events(),
		prefix: cursorFlows,
		match:  matchEvent(map[string]bool{f.ID(): true}, types),
	}})
}

func (s *Server) handleWatchExperiment(w http.ResponseWriter, r *http.Request, x *lab.Experiment) {
	types := typeFilter(r.URL.Query().Get("types"))
	s.streamEvents(w, r, []streamSource{{
		bus:    s.lab.Events(),
		prefix: cursorExperiments,
		match:  matchEvent(map[string]bool{x.ID(): true}, types),
	}})
}

// handleWatchMux streams any mix of flow and experiment events. With
// neither ?flows= nor ?experiments= it streams everything from both
// buses; naming one side restricts the stream to it ("*" keeps every
// topic of that side).
func (s *Server) handleWatchMux(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	types := typeFilter(q.Get("types"))
	_, hasFlows := q["flows"]
	_, hasExps := q["experiments"]
	var sources []streamSource
	if hasFlows || !hasExps {
		sources = append(sources, streamSource{
			bus:    s.reg.Events(),
			prefix: cursorFlows,
			match:  matchEvent(topicSet(q.Get("flows")), types),
		})
	}
	if hasExps || !hasFlows {
		sources = append(sources, streamSource{
			bus:    s.lab.Events(),
			prefix: cursorExperiments,
			match:  matchEvent(topicSet(q.Get("experiments")), types),
		})
	}
	s.streamEvents(w, r, sources)
}

// wantNDJSON negotiates the stream framing.
func wantNDJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "ndjson" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamEvents is the shared watch transport over one or two buses.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, sources []streamSource) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, apiv1.CodeInternal, "response writer cannot stream")
		return
	}

	// Resume cursor: the SSE-standard Last-Event-ID header wins, ?after=
	// serves first connections that want replay (e.g. after=0 for "from
	// the beginning of the retained ring").
	rawCursor := r.Header.Get("Last-Event-ID")
	if rawCursor == "" {
		rawCursor = r.URL.Query().Get("after")
	}
	cursor, okCursor := parseCursor(rawCursor)
	if !okCursor {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid resume cursor %q", rawCursor)
		return
	}

	buf := 0
	if raw := r.URL.Query().Get("buffer"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed <= 0 || parsed > watchBufferMax {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid buffer %q (1..%d)", raw, watchBufferMax)
			return
		}
		buf = parsed
	}

	ndjson := wantNDJSON(r)

	// Subscribe before writing headers so no event can fall between the
	// cursor snapshot and the subscription.
	type liveSource struct {
		streamSource
		sub  *eventbus.Subscription
		last uint64 // newest seq forwarded (or skipped-to) on this bus
	}
	live := make([]*liveSource, len(sources))
	for i, src := range sources {
		after, resumed := cursor[src.prefix], false
		if rawCursor != "" {
			_, resumed = cursor[src.prefix]
		}
		if !resumed {
			after = eventbus.Live
		}
		// Snapshot the bus position before subscribing: a live stream's
		// initial cursor must not claim events that were published while
		// the subscription was being set up.
		seqBefore := src.bus.Seq()
		sub := src.bus.Subscribe(buf, after, src.match)
		last := after
		if !resumed {
			last = seqBefore
		}
		live[i] = &liveSource{streamSource: src, sub: sub, last: last}
	}
	defer func() {
		for _, ls := range live {
			ls.sub.Close()
		}
	}()

	h := w.Header()
	if ndjson {
		h.Set("Content-Type", "application/x-ndjson; charset=utf-8")
	} else {
		h.Set("Content-Type", "text/event-stream; charset=utf-8")
	}
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// The stream's records are framed into one batch buffer and go out in
	// one Write and one Flush per batch: whatever the select hands over,
	// plus up to watchBatchMax-1 events already queued behind it.
	var (
		frames    []byte   // the batch being framed
		cur       []byte   // the rendered resume cursor
		delivered []uint64 // flow-bus seqs in frames, for the tick tracer
	)

	// renderCursor renders the combined opaque cursor for the current
	// position.
	renderCursor := func() []byte {
		cur = cur[:0]
		for _, ls := range live {
			cur = appendCursor(cur, ls.prefix, ls.last)
		}
		return cur
	}

	frame := func(id []byte, typ, topic string, at time.Time, payload any) error {
		var err error
		frames, err = appendFrame(frames, ndjson, id, typ, topic, at, payload)
		return err
	}

	// flush writes the batch, then closes any sampled tick trace waiting
	// on a flow-bus sequence the batch carried: those events have reached
	// the client.
	flush := func() error {
		if len(frames) == 0 {
			return nil
		}
		_, err := w.Write(frames)
		frames = frames[:0]
		if err != nil {
			return err
		}
		flusher.Flush()
		for _, seq := range delivered {
			telemetry.Traces.MarkDelivered(seq)
		}
		delivered = delivered[:0]
		return nil
	}

	// dropMarker surfaces a pending gap on one source.
	dropMarker := func(ls *liveSource) error {
		n := ls.sub.Dropped()
		if n == 0 {
			return nil
		}
		//flowervet:allow wallclock(drop markers on a live HTTP stream are stamped in the client's time frame)
		return frame(nil, apiv1.EventDropped, "", time.Now(), apiv1.DroppedEvent{Count: n})
	}

	// forward frames any pending drop marker for the source, then the event
	// received from it; a closed channel (!ok) ends the stream.
	forward := func(ls *liveSource, ev eventbus.Event, ok bool) error {
		if !ok {
			return errSubscriptionClosed
		}
		if err := dropMarker(ls); err != nil {
			return err
		}
		// Track the last forwarded seq unconditionally: after a bus epoch
		// reset (server restart), seqs restart below a resumed cursor, and
		// a max() here would pin every emitted cursor to the dead epoch.
		// Moving the cursor "backwards" merely re-delivers on resume —
		// at-least-once, which the drop-marker contract already implies.
		ls.last = ev.Seq
		if err := frame(renderCursor(), ev.Type, ev.Topic, ev.At, ev.Data); err != nil {
			return err
		}
		if ls.prefix == cursorFlows {
			delivered = append(delivered, ev.Seq)
		}
		return nil
	}

	// heartbeat frames pending drop markers — so an idle consumer still
	// learns it has a gap — and the keep-alive record.
	heartbeat := func() error {
		for _, ls := range live {
			if err := dropMarker(ls); err != nil {
				return err
			}
		}
		if ndjson {
			// The heartbeat carries the cursor so long-idle NDJSON
			// consumers keep a fresh resume position.
			return frame(renderCursor(), apiv1.EventHeartbeat, "", time.Time{}, nil)
		}
		// The SSE heartbeat comment carries the source buses' lifetime
		// publish/drop totals, so a consumer watching the raw stream can
		// spot plane-wide event loss without polling /v1/telemetry.
		var pub, drop uint64
		for _, ls := range live {
			pub += ls.bus.Published()
			drop += ls.bus.TotalDropped()
		}
		frames = append(frames, ": hb pub="...)
		frames = strconv.AppendUint(frames, pub, 10)
		frames = append(frames, " drop="...)
		frames = strconv.AppendUint(frames, drop, 10)
		frames = append(frames, "\n\n"...)
		return nil
	}

	// Open with a cursor-bearing hello so the client latches a resume
	// position before any real event, then flush resume gaps immediately —
	// a consumer whose missed state expired from the ring must not wait a
	// heartbeat interval to learn it should resync.
	err := frame(renderCursor(), apiv1.EventHello, "", time.Time{}, nil)
	for _, ls := range live {
		if err == nil {
			err = dropMarker(ls)
		}
	}
	if flush() != nil || err != nil {
		return
	}

	heartbeatEvery := s.watchHeartbeat
	if heartbeatEvery <= 0 {
		heartbeatEvery = defaultHeartbeat
	}
	ticker := time.NewTicker(heartbeatEvery) //flowervet:allow wallclock(heartbeats keep a real TCP connection alive)
	defer ticker.Stop()

	// The selects below are written for the stream's two possible sources;
	// a nil channel for an absent second source never fires.
	var ch0, ch1 <-chan eventbus.Event
	ch0 = live[0].sub.Events()
	if len(live) > 1 {
		ch1 = live[1].sub.Events()
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch0:
			err = forward(live[0], ev, ok)
		case ev, ok := <-ch1:
			err = forward(live[1], ev, ok)
		case <-ticker.C:
			err = heartbeat()
		}
	drain:
		for n := 1; err == nil && n < watchBatchMax; n++ {
			select {
			case ev, ok := <-ch0:
				err = forward(live[0], ev, ok)
			case ev, ok := <-ch1:
				err = forward(live[1], ev, ok)
			default:
				break drain
			}
		}
		// A stream that ends on an error still writes what it framed
		// before it.
		if flush() != nil || err != nil {
			return
		}
	}
}
