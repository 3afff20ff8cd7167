package httpapi

import (
	"encoding/json"
	"net/http"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/query"
	"repro/internal/timeseries"
)

// Columnar batch queries: POST /v1/metrics:batchQuery evaluates many
// (flow, metric, window, resample) selectors in one request. Selectors
// are grouped by flow so each flow's lock is taken once per batch, every
// series is answered as parallel ts/vs arrays (no per-point structs),
// and per-selector failures are reported inline instead of failing the
// batch. Since the query plane landed, batchQuery is sugar over the
// engine: each selector is a one-select pipeline evaluated by
// query.EvalSelector — the same zero-copy streaming chain POST /v1/query
// runs, with epoch-aligned resample buckets. The HTML dashboard's
// sparkline collection runs through the same evaluation, so a dashboard
// render is one grouped pass rather than one store query per panel.

// maxBatchQueries bounds one batch request.
const maxBatchQueries = 256

// selector is one parsed batch query.
type selector struct {
	ns, name string
	dims     map[string]string
	window   time.Duration
	period   time.Duration
	stat     timeseries.Agg
}

// colResult is one evaluated selector: the columns of the answer series,
// or an inline error.
type colResult struct {
	ts  []int64
	vs  []float64
	err *apiv1.Error
}

// evalSelectorsLocked answers every selector against the manager's store
// through the query engine's streaming executor. It must run under the
// flow lock (inside Flow.View); the returned columns are freshly owned,
// so they stay valid after the lock is released. A selector naming a
// metric the flow never published gets a typed not_found entry instead
// of failing the batch.
func evalSelectorsLocked(m *core.Manager, sels []selector) []colResult {
	out := make([]colResult, len(sels))
	now := m.Harness().Clock.Now()
	store := m.Store()
	for i, sel := range sels {
		h, ok := store.Lookup(sel.ns, sel.name, sel.dims)
		if !ok {
			id := metricstore.MetricID{Namespace: sel.ns, Name: sel.name, Dimensions: sel.dims}
			out[i].err = &apiv1.Error{Code: apiv1.CodeNotFound, Message: "no such metric " + id.String()}
			continue
		}
		out[i].ts, out[i].vs = query.EvalSelector(h,
			now.Add(-sel.window), now.Add(time.Nanosecond), sel.period, sel.stat)
	}
	return out
}

// parseSelector validates one wire selector; flow resolution happens in
// the handler.
func parseSelector(q apiv1.BatchQuerySelector) (selector, *apiv1.Error) {
	sel := selector{ns: q.Namespace, name: q.Name, dims: q.Dimensions, window: 30 * time.Minute, period: time.Minute}
	if q.Namespace == "" || q.Name == "" {
		return sel, &apiv1.Error{Code: apiv1.CodeInvalidArgument, Message: "ns and name are required"}
	}
	stat, ok := query.ParseStat(q.Stat)
	if !ok {
		return sel, &apiv1.Error{Code: apiv1.CodeInvalidArgument, Message: "unknown stat " + q.Stat}
	}
	sel.stat = stat
	if q.Window != "" {
		d, err := time.ParseDuration(q.Window)
		if err != nil || d <= 0 {
			return sel, &apiv1.Error{Code: apiv1.CodeInvalidArgument, Message: "invalid window " + q.Window}
		}
		sel.window = d
	}
	if q.Period != "" {
		d, err := time.ParseDuration(q.Period)
		if err != nil || d < 0 {
			return sel, &apiv1.Error{Code: apiv1.CodeInvalidArgument, Message: "invalid period " + q.Period}
		}
		sel.period = d // 0 selects the raw datapoints
	}
	return sel, nil
}

func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	var req apiv1.BatchQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "queries must not be empty")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument,
			"%d queries exceed the %d-per-batch limit", len(req.Queries), maxBatchQueries)
		return
	}

	results := make([]apiv1.ColumnSeries, len(req.Queries))
	sels := make([]selector, len(req.Queries))
	// Group request indices by flow, preserving first-seen flow order, so
	// every flow's lock is acquired exactly once per batch.
	byFlow := make(map[string][]int)
	var flowOrder []string
	for i, q := range req.Queries {
		results[i] = apiv1.ColumnSeries{
			Flow: q.Flow, Namespace: q.Namespace, Name: q.Name,
			Ts: []int64{}, Vs: []float64{},
		}
		sel, argErr := parseSelector(q)
		if argErr != nil {
			results[i].Error = argErr
			continue
		}
		sels[i] = sel
		results[i].Stat = sel.stat.String()
		if sel.period > 0 {
			results[i].Period = sel.period.String()
		}
		if _, seen := byFlow[q.Flow]; !seen {
			flowOrder = append(flowOrder, q.Flow)
		}
		byFlow[q.Flow] = append(byFlow[q.Flow], i)
	}

	for _, flowID := range flowOrder {
		idxs := byFlow[flowID]
		f, ok := s.reg.Get(flowID)
		if !ok {
			for _, i := range idxs {
				results[i].Error = &apiv1.Error{Code: apiv1.CodeNotFound, Message: "no flow " + flowID}
			}
			continue
		}
		flowSels := make([]selector, len(idxs))
		for j, i := range idxs {
			flowSels[j] = sels[i]
		}
		var cols []colResult
		f.View(func(m *core.Manager) { cols = evalSelectorsLocked(m, flowSels) })
		for j, i := range idxs {
			if cols[j].err != nil {
				results[i].Error = cols[j].err
				continue
			}
			results[i].Ts, results[i].Vs = cols[j].ts, cols[j].vs
		}
	}

	// Compact JSON: this is the bulk wire path — indentation would more
	// than double the payload the endpoint exists to shrink.
	writeJSONCompact(w, http.StatusOK, apiv1.BatchQueryResponse{Results: results})
}
