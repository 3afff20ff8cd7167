package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	apiv1 "repro/api/v1"
)

// Watch streams: the SDK half of the server-push read plane. A Watch is a
// pull-style iterator over a server event stream (NDJSON framing) that
// reconnects automatically with exponential backoff and resumes from the
// last seen event id, so a blip in the connection costs at most a
// "dropped" marker, never a silent gap.
//
//	w := c.WatchFlow("web", client.WatchOptions{})
//	defer w.Close()
//	for {
//		ev, err := w.Next(ctx)
//		if err != nil { ... }
//		switch ev.Type {
//		case apiv1.EventFlowAdvanced: ...
//		}
//	}

// watchBackoffMax caps the reconnect backoff.
const watchBackoffMax = 5 * time.Second

// WatchOptions tunes a single-resource watch stream.
type WatchOptions struct {
	// Types filters the stream to these event types (empty: everything).
	Types []string
	// After is the initial resume cursor: an opaque id previously read
	// from Event.ID, or "0" to replay everything the server's ring still
	// retains. Empty starts live.
	After string
	// Buffer overrides the server's per-subscriber queue size (0: server
	// default). Smaller buffers drop sooner under load; larger ones absorb
	// bursts.
	Buffer int
}

// WatchQuery selects the multiplexed /v1/watch stream: any mix of flows
// and experiments in one connection.
type WatchQuery struct {
	// Flows restricts flow events to these ids; AllFlows streams every
	// flow. With neither set (and no experiment selection either), the
	// stream carries everything from both buses.
	Flows    []string
	AllFlows bool
	// Experiments restricts experiment events to these ids;
	// AllExperiments streams every experiment.
	Experiments    []string
	AllExperiments bool

	Types  []string
	After  string
	Buffer int
}

// Watch is a streaming event iterator. It is not safe for concurrent use.
// The connection is dialled lazily by the first Next call: events
// published before that are only seen when the stream resumes from a
// cursor (WatchOptions.After, e.g. "0" for the server's full retained
// ring). To observe the effects of your own subsequent requests, either
// pass a cursor or have Next pending before issuing them.
type Watch struct {
	c     *Client
	path  string     // endpoint path
	query url.Values // static query parameters (types, buffer)

	lastID  string // resume cursor: last event id seen, else WatchOptions.After
	body    io.ReadCloser
	br      *bufio.Reader
	backoff time.Duration
	closed  bool
}

// ErrWatchClosed is returned by Next after Close.
var ErrWatchClosed = fmt.Errorf("flower api: watch closed")

func (c *Client) newWatch(path string, types []string, after string, buffer int) *Watch {
	q := url.Values{}
	if len(types) > 0 {
		q.Set("types", strings.Join(types, ","))
	}
	if buffer > 0 {
		q.Set("buffer", strconv.Itoa(buffer))
	}
	return &Watch{c: c, path: path, query: q, lastID: after}
}

// WatchFlow streams one flow's events (lifecycle, advances, controller
// decisions, pacer transitions).
func (c *Client) WatchFlow(id string, opts WatchOptions) *Watch {
	return c.newWatch(flowPath(id, "/watch"), opts.Types, opts.After, opts.Buffer)
}

// WatchExperiment streams one experiment's events (state transitions,
// trial starts and finishes).
func (c *Client) WatchExperiment(id string, opts WatchOptions) *Watch {
	return c.newWatch(experimentPath(id, "/watch"), opts.Types, opts.After, opts.Buffer)
}

// Watch streams the multiplexed /v1/watch endpoint.
func (c *Client) Watch(q WatchQuery) *Watch {
	w := c.newWatch("/v1/watch", q.Types, q.After, q.Buffer)
	switch {
	case q.AllFlows:
		w.query.Set("flows", "*")
	case len(q.Flows) > 0:
		w.query.Set("flows", strings.Join(q.Flows, ","))
	}
	switch {
	case q.AllExperiments:
		w.query.Set("experiments", "*")
	case len(q.Experiments) > 0:
		w.query.Set("experiments", strings.Join(q.Experiments, ","))
	}
	return w
}

// LastID returns the current resume cursor: pass it as WatchOptions.After
// to continue a stream in a later process.
func (w *Watch) LastID() string { return w.lastID }

// Close tears down the stream. Next returns ErrWatchClosed afterwards.
func (w *Watch) Close() error {
	w.closed = true
	if w.body != nil {
		err := w.body.Close()
		w.body, w.br = nil, nil
		return err
	}
	return nil
}

// connect dials the stream, resuming from the last seen cursor. The
// client's default request timeout deliberately does not apply: a watch
// is expected to stay open indefinitely.
func (w *Watch) connect(ctx context.Context) error {
	q := url.Values{}
	for k, v := range w.query {
		q[k] = v
	}
	if w.lastID != "" {
		q.Set("after", w.lastID)
	}
	u := w.c.base + w.path
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	req.Header.Set("User-Agent", w.c.userAgent)
	if w.lastID != "" {
		req.Header.Set("Last-Event-ID", w.lastID)
	}
	resp, err := w.c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return decodeError(resp, data)
	}
	w.body = resp.Body
	w.br = bufio.NewReader(resp.Body)
	return nil
}

// permanentWatchError reports whether reconnecting cannot help: the
// resource does not exist or the server has no watch endpoint at all.
func permanentWatchError(err error) bool {
	ae, ok := err.(*APIError)
	if !ok {
		return false
	}
	switch ae.StatusCode {
	case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented, http.StatusBadRequest:
		return true
	}
	return false
}

// Next returns the next event, transparently reconnecting (with resume)
// on stream errors. Heartbeats are consumed internally; "dropped" markers
// are delivered, since consumers may need to re-sync state after a gap.
// It returns ctx.Err() when the context ends, ErrWatchClosed after Close,
// and the underlying *APIError when the stream is permanently unavailable
// (unknown resource, or a server without watch support).
func (w *Watch) Next(ctx context.Context) (apiv1.Event, error) {
	for {
		if w.closed {
			return apiv1.Event{}, ErrWatchClosed
		}
		if err := ctx.Err(); err != nil {
			return apiv1.Event{}, err
		}
		if w.body == nil {
			if err := w.connect(ctx); err != nil {
				if ctx.Err() != nil {
					return apiv1.Event{}, ctx.Err()
				}
				if permanentWatchError(err) {
					return apiv1.Event{}, err
				}
				if !w.sleepBackoff(ctx) {
					return apiv1.Event{}, ctx.Err()
				}
				continue
			}
			w.backoff = 0
		}
		line, err := w.br.ReadBytes('\n')
		if err != nil {
			// Stream broke (EOF, reset, ctx cancelled mid-read):
			// reconnect with the resume cursor.
			w.body.Close()
			w.body, w.br = nil, nil
			if ctx.Err() != nil {
				return apiv1.Event{}, ctx.Err()
			}
			if !w.sleepBackoff(ctx) {
				return apiv1.Event{}, ctx.Err()
			}
			continue
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var ev apiv1.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return apiv1.Event{}, fmt.Errorf("flower api: decode watch event: %w", err)
		}
		// Latch the cursor before filtering transport records: hello and
		// heartbeats exist precisely so a stream that never delivered a
		// real event still resumes from the right position.
		if ev.ID != "" {
			w.lastID = ev.ID
		}
		if ev.Type == apiv1.EventHeartbeat || ev.Type == apiv1.EventHello {
			continue
		}
		return ev, nil
	}
}

// sleepBackoff waits the next backoff step; false means ctx ended.
func (w *Watch) sleepBackoff(ctx context.Context) bool {
	if w.backoff == 0 {
		w.backoff = 100 * time.Millisecond
	} else if w.backoff *= 2; w.backoff > watchBackoffMax {
		w.backoff = watchBackoffMax
	}
	t := time.NewTimer(w.backoff) //flowervet:allow wallclock(reconnect backoff against a remote server is wall time by definition)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
