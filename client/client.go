// Package client is the typed Go SDK for Flower's v1 REST control plane
// (internal/httpapi). It covers every v1 endpoint — flow lifecycle, status,
// layers, controller tuning, decisions, paginated metric queries,
// snapshots, dependency analysis, advancing and pacing, plus the Scenario
// Lab's experiment farm (/v1/experiments) — marshalling the same wire
// structs the server does (repro/api/v1), so a compile-time type mismatch
// between the two sides is impossible.
//
// The read plane is streaming and columnar: WatchFlow, WatchExperiment
// and Watch are auto-reconnecting event-stream iterators (resume via
// opaque cursors, explicit dropped-event markers), BatchQueryMetrics
// fetches many series across many flows in one columnar round trip, and
// WaitExperiment waits on a watch stream — zero steady-state polls.
//
// Every non-streaming request carries a User-Agent and a default
// deadline (DefaultTimeout; WithTimeout tunes or disables it); watch
// streams are exempt and stay open indefinitely.
//
//	c := client.New("http://127.0.0.1:8080")
//	f, err := c.CreateFlow(ctx, apiv1.CreateFlowRequest{ID: "checkout", Peak: 3000})
//	...
//	res, err := c.Advance(ctx, "checkout", 2*time.Hour)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/lab"
	"repro/internal/monitor"
)

// DefaultTimeout bounds each non-streaming request when New is not given
// WithTimeout. Watch streams are exempt: they are expected to stay open.
// The default is deliberately generous — advancing a flow by months of
// simulated time is a legitimate multi-minute request — while still
// unsticking callers from a hung server; tighten it with WithTimeout for
// interactive use.
const DefaultTimeout = 5 * time.Minute

// defaultUserAgent identifies the SDK on the wire.
const defaultUserAgent = "flower-client/1 (repro/client)"

// Client talks to one Flower control plane.
type Client struct {
	base       string
	hc         *http.Client
	timeout    time.Duration // per-request deadline for non-streaming calls; <= 0: none
	userAgent  string
	maxRetries int           // extra attempts for idempotent requests; 0: fail on first error
	retryBase  time.Duration // first backoff ceiling (doubles per retry, capped)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (transports, test
// doubles). Avoid setting http.Client.Timeout — it would also kill watch
// streams; use WithTimeout, which only bounds non-streaming requests.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout sets the per-request deadline applied to every
// non-streaming call (default DefaultTimeout; <= 0 disables it). A
// deadline already on the caller's context still applies — whichever is
// sooner wins.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithUserAgent overrides the SDK's User-Agent header.
func WithUserAgent(ua string) Option {
	return func(c *Client) { c.userAgent = ua }
}

// WithRetry enables bounded retries for idempotent requests: a GET that
// fails with a connection error or a 5xx response is retried up to
// maxRetries extra times, with exponential backoff and full jitter
// between attempts (ceiling retryBaseDelay, doubling per retry, capped
// at retryMaxDelay). Non-GET requests are never retried — the SDK
// cannot know whether a POST took effect before the connection died —
// and 4xx responses fail immediately on any method: the server answered
// and the answer is no. Watch streams reconnect on their own and are
// unaffected. The caller's context (and WithTimeout's deadline) still
// bound the whole call, backoff included.
func WithRetry(maxRetries int) Option {
	return func(c *Client) {
		if maxRetries < 0 {
			maxRetries = 0
		}
		c.maxRetries = maxRetries
	}
}

// retryBaseDelay is the first retry's backoff ceiling; retryMaxDelay
// caps the exponential growth.
const (
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

// New returns a client for the control plane at baseURL
// (e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		hc:        http.DefaultClient,
		timeout:   DefaultTimeout,
		userAgent: defaultUserAgent,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response decoded from the server's uniform error
// envelope.
type APIError struct {
	StatusCode int
	Code       apiv1.ErrorCode
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("flower api: %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// IsNotFound reports whether err is an APIError with code "not_found".
func IsNotFound(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == apiv1.CodeNotFound
}

// IsConflict reports whether err is an APIError with code "conflict".
func IsConflict(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Code == apiv1.CodeConflict
}

// do issues one request; a non-2xx status is decoded into *APIError, a 2xx
// body into out (when non-nil). With WithRetry set, GETs that die on a
// connection error or come back 5xx are reissued with jittered backoff;
// everything else fails on the first answer.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var payload []byte
	if in != nil {
		var err error
		payload, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("flower api: encode request: %w", err)
		}
	}
	attempts := 1
	if method == http.MethodGet {
		attempts += c.maxRetries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleepBackoff(ctx, attempt); err != nil {
				return lastErr
			}
		}
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return err
		}
		req.Header.Set("User-Agent", c.userAgent)
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return err // the caller gave up; retrying would only delay the news
			}
			lastErr = err
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			apiErr := decodeError(resp, data)
			if resp.StatusCode >= 500 {
				lastErr = apiErr
				continue
			}
			return apiErr
		}
		if out == nil {
			resp.Body.Close()
			return nil
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("flower api: decode %s %s: %w", method, path, err)
		}
		return nil
	}
	return lastErr
}

// sleepBackoff waits out one retry's backoff: full jitter over an
// exponentially growing ceiling (retryBaseDelay doubling per attempt,
// capped at retryMaxDelay), interruptible by ctx.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) error {
	base := c.retryBase
	if base <= 0 {
		base = retryBaseDelay
	}
	ceil := retryMaxDelay
	if shifted := base << (attempt - 1); attempt-1 < 16 && shifted < retryMaxDelay {
		ceil = shifted
	}
	d := time.Duration(rand.Int64N(int64(ceil))) + 1
	t := time.NewTimer(d) //flowervet:allow wallclock(retry backoff paces real network attempts)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// decodeError turns a non-2xx response into an *APIError, decoding the
// server's uniform envelope when present. A body that is not the envelope
// (a proxy's HTML error page, a truncated response) never masks the
// status code: the status line is kept and a bounded snippet of the body
// is attached for diagnosis.
func decodeError(resp *http.Response, body []byte) *APIError {
	ae := &APIError{StatusCode: resp.StatusCode, Code: apiv1.CodeInternal, Message: resp.Status}
	var env apiv1.ErrorEnvelope
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		ae.Code, ae.Message = env.Error.Code, env.Error.Message
		return ae
	}
	if snippet := strings.TrimSpace(string(body)); snippet != "" {
		const maxSnippet = 200
		if len(snippet) > maxSnippet {
			snippet = snippet[:maxSnippet] + "…"
		}
		ae.Message = resp.Status + ": " + snippet
	}
	return ae
}

func flowPath(id string, suffix string) string {
	return "/v1/flows/" + url.PathEscape(id) + suffix
}

// CreateFlow registers a new flow; see apiv1.CreateFlowRequest for the
// spec/peak/step/seed/pace knobs.
func (c *Client) CreateFlow(ctx context.Context, req apiv1.CreateFlowRequest) (apiv1.FlowSummary, error) {
	var out apiv1.FlowSummary
	err := c.do(ctx, http.MethodPost, "/v1/flows", req, &out)
	return out, err
}

// ListFlows returns every registered flow, sorted by id.
func (c *Client) ListFlows(ctx context.Context) ([]apiv1.FlowSummary, error) {
	var out apiv1.FlowList
	if err := c.do(ctx, http.MethodGet, "/v1/flows", nil, &out); err != nil {
		return nil, err
	}
	return out.Flows, nil
}

// GetFlow returns one flow's summary plus its full definition.
func (c *Client) GetFlow(ctx context.Context, id string) (apiv1.FlowDetail, error) {
	var out apiv1.FlowDetail
	err := c.do(ctx, http.MethodGet, flowPath(id, ""), nil, &out)
	return out, err
}

// DeleteFlow stops and removes a flow.
func (c *Client) DeleteFlow(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, flowPath(id, ""), nil, nil)
}

// Status returns a flow's live run summary.
func (c *Client) Status(ctx context.Context, id string) (apiv1.Status, error) {
	var out apiv1.Status
	err := c.do(ctx, http.MethodGet, flowPath(id, "/status"), nil, &out)
	return out, err
}

// Layers returns a flow's per-layer live state.
func (c *Client) Layers(ctx context.Context, id string) ([]apiv1.Layer, error) {
	var out []apiv1.Layer
	err := c.do(ctx, http.MethodGet, flowPath(id, "/layers"), nil, &out)
	return out, err
}

// Decisions returns the last n recorded control actions of one layer's
// controller (n <= 0 uses the server default).
func (c *Client) Decisions(ctx context.Context, id string, kind string, n int) ([]apiv1.Decision, error) {
	path := flowPath(id, "/layers/"+url.PathEscape(kind)+"/decisions")
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var out []apiv1.Decision
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// TuneController updates one layer controller's parameters; nil fields of
// req are left unchanged.
func (c *Client) TuneController(ctx context.Context, id string, kind string, req apiv1.TuneRequest) (apiv1.Controller, error) {
	var out apiv1.Controller
	err := c.do(ctx, http.MethodPost, flowPath(id, "/layers/"+url.PathEscape(kind)+"/controller"), req, &out)
	return out, err
}

// Metrics lists a flow's metrics grouped by namespace.
func (c *Client) Metrics(ctx context.Context, id string) (map[string][]apiv1.MetricID, error) {
	var out map[string][]apiv1.MetricID
	err := c.do(ctx, http.MethodGet, flowPath(id, "/metrics"), nil, &out)
	return out, err
}

// MetricQuery selects one aggregated series of one flow.
type MetricQuery struct {
	Namespace  string
	Name       string
	Dimensions map[string]string
	// Stat is a CloudWatch-flavoured statistic (avg, sum, min, max, count,
	// p50, p90, p99); empty means avg.
	Stat string
	// Window is the trailing query window (0: server default, 30m).
	Window time.Duration
	// Period is the aggregation bucket (0: server default, 1m).
	Period time.Duration
	// Limit/Offset paginate the aggregated points; Limit 0 returns all.
	Limit  int
	Offset int
}

// QueryMetrics fetches one page of an aggregated metric series.
func (c *Client) QueryMetrics(ctx context.Context, id string, q MetricQuery) (apiv1.Series, error) {
	vals := url.Values{}
	vals.Set("ns", q.Namespace)
	vals.Set("name", q.Name)
	if q.Stat != "" {
		vals.Set("stat", q.Stat)
	}
	if q.Window > 0 {
		vals.Set("window", q.Window.String())
	}
	if q.Period > 0 {
		vals.Set("period", q.Period.String())
	}
	if q.Limit > 0 {
		vals.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Offset > 0 {
		vals.Set("offset", strconv.Itoa(q.Offset))
	}
	for k, v := range q.Dimensions {
		vals.Set("dim."+k, v)
	}
	var out apiv1.Series
	err := c.do(ctx, http.MethodGet, flowPath(id, "/metrics/query?"+vals.Encode()), nil, &out)
	return out, err
}

// QueryAllMetrics follows NextOffset until the full series is fetched,
// issuing one request per pageSize points. The server evaluates each page
// over its trailing window anchored at the flow's current simulated time,
// so on a flow whose clock is moving (a running pacer) the window slides
// between pages; pages are merged monotonically by timestamp, which drops
// duplicates but cannot recover points that slid out of the window. For
// exact results, query a paused flow.
func (c *Client) QueryAllMetrics(ctx context.Context, id string, q MetricQuery, pageSize int) (apiv1.Series, error) {
	if pageSize <= 0 {
		pageSize = 500
	}
	q.Limit, q.Offset = pageSize, 0
	first, err := c.QueryMetrics(ctx, id, q)
	if err != nil {
		return apiv1.Series{}, err
	}
	out := first
	for out.NextOffset != nil {
		q.Offset = *out.NextOffset
		page, err := c.QueryMetrics(ctx, id, q)
		if err != nil {
			return apiv1.Series{}, err
		}
		for _, p := range page.Points {
			if n := len(first.Points); n == 0 || p.T.After(first.Points[n-1].T) {
				first.Points = append(first.Points, p)
			}
		}
		out = page
	}
	first.Limit, first.NextOffset, first.Offset = 0, nil, 0
	first.Total = len(first.Points)
	return first, nil
}

// BatchQuery is one selector of a columnar batch metric query.
type BatchQuery struct {
	// Flow is the registry id of the flow the metric belongs to.
	Flow       string
	Namespace  string
	Name       string
	Dimensions map[string]string
	// Stat is a CloudWatch-flavoured statistic (avg, sum, min, max, count,
	// p50, p90, p99); empty means avg.
	Stat string
	// Window is the trailing query window (0: server default, 30m).
	Window time.Duration
	// Period is the aggregation bucket (0: server default, 1m).
	Period time.Duration
	// Raw requests the window's raw datapoints, unresampled (overrides
	// Period).
	Raw bool
}

// BatchQueryMetrics evaluates many selectors — across any number of flows
// — in one POST /v1/metrics:batchQuery round trip and returns
// column-oriented series (parallel unix-nano/value arrays). Results[i]
// answers queries[i]; a selector that failed carries its own Error field
// instead of failing the batch. One batch call replaces N QueryMetrics
// round trips, which is both fewer bytes and far fewer allocations than
// per-point JSON.
func (c *Client) BatchQueryMetrics(ctx context.Context, queries []BatchQuery) ([]apiv1.ColumnSeries, error) {
	req := apiv1.BatchQueryRequest{Queries: make([]apiv1.BatchQuerySelector, len(queries))}
	for i, q := range queries {
		sel := apiv1.BatchQuerySelector{
			Flow:       q.Flow,
			Namespace:  q.Namespace,
			Name:       q.Name,
			Dimensions: q.Dimensions,
			Stat:       q.Stat,
		}
		if q.Window > 0 {
			sel.Window = q.Window.String()
		}
		switch {
		case q.Raw:
			sel.Period = "0s"
		case q.Period > 0:
			sel.Period = q.Period.String()
		}
		req.Queries[i] = sel
	}
	var out apiv1.BatchQueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/metrics:batchQuery", req, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(queries) {
		return nil, fmt.Errorf("flower api: batch query returned %d results for %d queries", len(out.Results), len(queries))
	}
	return out.Results, nil
}

// Snapshot fetches the flow's consolidated monitoring view over the
// trailing window (0: server default, 30m).
func (c *Client) Snapshot(ctx context.Context, id string, window time.Duration) (monitor.Snapshot, error) {
	path := flowPath(id, "/snapshot")
	if window > 0 {
		path += "?window=" + url.QueryEscape(window.String())
	}
	var out monitor.Snapshot
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Dependencies runs workload dependency analysis over the flow's history.
func (c *Client) Dependencies(ctx context.Context, id string) ([]apiv1.Dependency, error) {
	var out []apiv1.Dependency
	err := c.do(ctx, http.MethodGet, flowPath(id, "/dependencies"), nil, &out)
	return out, err
}

// Advance runs the flow's simulation forward by d.
func (c *Client) Advance(ctx context.Context, id string, d time.Duration) (apiv1.AdvanceResult, error) {
	var out apiv1.AdvanceResult
	err := c.do(ctx, http.MethodPost, flowPath(id, "/advance"), apiv1.AdvanceRequest{Duration: d.String()}, &out)
	return out, err
}

// SetPace starts the flow's wall-clock pacer at pace simulated seconds per
// wall second (pace 0 stops it). wallTick 0 uses the server default.
func (c *Client) SetPace(ctx context.Context, id string, pace float64, wallTick time.Duration) (apiv1.PaceState, error) {
	req := apiv1.PaceRequest{Pace: pace}
	if wallTick > 0 {
		req.WallTick = wallTick.String()
	}
	var out apiv1.PaceState
	err := c.do(ctx, http.MethodPost, flowPath(id, "/pace"), req, &out)
	return out, err
}

// Pace reports the flow's pacer state.
func (c *Client) Pace(ctx context.Context, id string) (apiv1.PaceState, error) {
	var out apiv1.PaceState
	err := c.do(ctx, http.MethodGet, flowPath(id, "/pace"), nil, &out)
	return out, err
}

// SchedulerStats fetches the control plane's execution-plane view: the
// sharded scheduler's shape (shards, workers, capacity), queue depths,
// late/skipped tick counters, batched-execution counters (batches, jobs
// per batch) and per-shard run-latency histograms. Execution is
// shard-affine, so every per-shard counter is exact for the jobs hashing
// to that shard.
func (c *Client) SchedulerStats(ctx context.Context) (apiv1.SchedulerStats, error) {
	var out apiv1.SchedulerStats
	err := c.do(ctx, http.MethodGet, "/v1/scheduler", nil, &out)
	return out, err
}

// --- Scenario Lab (/v1/experiments) ---

func experimentPath(id string, suffix string) string {
	return "/v1/experiments/" + url.PathEscape(id) + suffix
}

// CreateExperiment submits a Scenario Lab experiment; trials start
// running on the server's worker pool immediately. Poll GetExperiment
// (or use WaitExperiment) for progress and ExperimentResults for the
// outcome.
func (c *Client) CreateExperiment(ctx context.Context, req apiv1.CreateExperimentRequest) (apiv1.ExperimentSummary, error) {
	var out apiv1.ExperimentSummary
	err := c.do(ctx, http.MethodPost, "/v1/experiments", req, &out)
	return out, err
}

// ListExperiments returns every submitted experiment, sorted by id.
func (c *Client) ListExperiments(ctx context.Context) ([]apiv1.ExperimentSummary, error) {
	var out apiv1.ExperimentList
	if err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out); err != nil {
		return nil, err
	}
	return out.Experiments, nil
}

// GetExperiment returns one experiment's summary, definition and
// expanded trial grid.
func (c *Client) GetExperiment(ctx context.Context, id string) (apiv1.ExperimentDetail, error) {
	var out apiv1.ExperimentDetail
	err := c.do(ctx, http.MethodGet, experimentPath(id, ""), nil, &out)
	return out, err
}

// CancelExperiment stops an experiment: queued trials are cancelled and
// running trials stop at their next chunk boundary. Results of trials
// already completed remain available.
func (c *Client) CancelExperiment(ctx context.Context, id string) (apiv1.ExperimentSummary, error) {
	var out apiv1.ExperimentSummary
	err := c.do(ctx, http.MethodPost, experimentPath(id, "/cancel"), nil, &out)
	return out, err
}

// ExperimentResults fetches per-trial summaries plus cross-trial
// aggregates. Callable at any time: mid-run it covers the trials
// finished so far.
func (c *Client) ExperimentResults(ctx context.Context, id string) (apiv1.ExperimentResults, error) {
	var out apiv1.ExperimentResults
	err := c.do(ctx, http.MethodGet, experimentPath(id, "/results"), nil, &out)
	return out, err
}

// DeleteExperiment cancels an experiment and removes it from the store.
func (c *Client) DeleteExperiment(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, experimentPath(id, ""), nil, nil)
}

// WaitExperiment blocks until the experiment leaves the running state
// (completed or cancelled) or ctx expires, then returns its final
// summary.
//
// It opens one GET /v1/experiments/{id}/watch stream (replaying the
// retained ring, so an experiment that settled before the call is seen
// immediately) and issues zero polls while waiting — one final
// GetExperiment fetches the authoritative summary once the terminal state
// event arrives. An unknown experiment returns the server's not-found
// *APIError.
func (c *Client) WaitExperiment(ctx context.Context, id string) (apiv1.ExperimentSummary, error) {
	w := c.WatchExperiment(id, WatchOptions{
		After: "0", // replay: a terminal state recorded before the call still arrives
		Types: []string{
			apiv1.EventExperimentCreated,
			apiv1.EventExperimentState,
			apiv1.EventExperimentDeleted,
		},
	})
	defer w.Close()
	for {
		ev, err := w.Next(ctx)
		switch {
		case err == nil:
		case ctx.Err() != nil:
			return apiv1.ExperimentSummary{}, ctx.Err()
		default:
			return apiv1.ExperimentSummary{}, err
		}

		switch ev.Type {
		case apiv1.EventExperimentCreated, apiv1.EventExperimentState, apiv1.EventExperimentDeleted:
			var state lab.ExperimentEvent
			if err := json.Unmarshal(ev.Data, &state); err != nil {
				return apiv1.ExperimentSummary{}, fmt.Errorf("flower api: decode %s event: %w", ev.Type, err)
			}
			if state.Status == lab.StatusRunning {
				continue
			}
			detail, err := c.GetExperiment(ctx, id)
			if err != nil {
				return apiv1.ExperimentSummary{}, err
			}
			return detail.ExperimentSummary, nil
		case apiv1.EventDropped:
			// The stream has a gap: the terminal state event may be in it,
			// so check the experiment once before waiting on.
			detail, err := c.GetExperiment(ctx, id)
			if err != nil {
				return apiv1.ExperimentSummary{}, err
			}
			if detail.Status != lab.StatusRunning {
				return detail.ExperimentSummary, nil
			}
		}
	}
}

// Dashboard fetches the flow's rendered HTML dashboard.
func (c *Client) Dashboard(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+flowPath(id, "/dashboard"), nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return "", decodeError(resp, data)
	}
	return string(data), nil
}
