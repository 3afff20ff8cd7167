package httpapi

import (
	"cmp"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/compute"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/kvstore"
	"repro/internal/monitor"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/stream"
)

// wroteDegraded maps a degraded-plane mutation failure onto its wire
// shape — 503 with the typed "unavailable" code — and reports whether it
// did. Every mutation handler calls it first on error: when the WAL can
// no longer make mutations durable the plane is read-only, and refusing
// with a retriable status beats acknowledging a mutation that would not
// survive a restart. Reads and watch streams never take this path.
func wroteDegraded(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, persist.ErrDegraded) {
		return false
	}
	writeError(w, http.StatusServiceUnavailable, apiv1.CodeUnavailable, "%v", err)
	return true
}

// defaultWallTick is the pacer granularity when a pace request names none.
const defaultWallTick = 250 * time.Millisecond

// --- flow collection ---

func (s *Server) handleCreateFlow(w http.ResponseWriter, r *http.Request) {
	var req apiv1.CreateFlowRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid body: %v", err)
		return
	}

	var spec flow.Spec
	switch {
	case req.Spec != nil:
		spec = *req.Spec
		if err := spec.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid spec: %v", err)
			return
		}
	default:
		peak := req.Peak
		if peak <= 0 {
			peak = 3000
		}
		var err error
		if spec, err = flow.DefaultClickstream(peak); err != nil {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "default flow: %v", err)
			return
		}
	}

	opts := sim.Options{Seed: req.Seed}
	if req.Step != "" {
		d, err := time.ParseDuration(req.Step)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid step %q", req.Step)
			return
		}
		opts.Step = d
	}
	if req.Pace < 0 {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "negative pace %v", req.Pace)
		return
	}
	// Check the pace before the flow exists: a create refused for its
	// pace must leave no flow and no WAL record behind.
	if req.Pace > 0 {
		if err := registry.CheckPace(req.Pace, defaultWallTick, cmp.Or(opts.Step, sim.DefaultStep)); err != nil {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "pace: %v", err)
			return
		}
	}

	id := req.ID
	if id == "" {
		id = spec.Name
	}
	f, err := s.reg.Create(id, spec, opts)
	switch {
	case err == nil:
	case wroteDegraded(w, err):
		return
	case errors.Is(err, registry.ErrExists):
		writeError(w, http.StatusConflict, apiv1.CodeConflict, "%v", err)
		return
	case errors.Is(err, registry.ErrBadID):
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "materialise: %v", err)
		return
	}
	if req.Pace > 0 {
		if err := f.StartPacing(req.Pace, defaultWallTick); err != nil {
			if !wroteDegraded(w, err) {
				writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "pace: %v", err)
			}
			return
		}
	}
	writeJSON(w, http.StatusCreated, flowSummary(f))
}

func (s *Server) handleListFlows(w http.ResponseWriter, r *http.Request) {
	flows := s.reg.List()
	out := apiv1.FlowList{Flows: make([]apiv1.FlowSummary, 0, len(flows)), Count: len(flows)}
	for _, f := range flows {
		out.Flows = append(out.Flows, flowSummary(f))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetFlow(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	detail := apiv1.FlowDetail{FlowSummary: flowSummary(f)}
	f.View(func(m *core.Manager) { detail.Spec = m.Spec() })
	writeJSON(w, http.StatusOK, detail)
}

func (s *Server) handleDeleteFlow(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.reg.Delete(id); err != nil {
		if !wroteDegraded(w, err) {
			writeError(w, http.StatusNotFound, apiv1.CodeNotFound, "%v", err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// flowSummary snapshots one flow's collection row.
func flowSummary(f *registry.Flow) apiv1.FlowSummary {
	out := apiv1.FlowSummary{ID: f.ID(), Created: f.Created()}
	f.View(func(m *core.Manager) {
		h := m.Harness()
		out.Name = m.Spec().Name
		out.SimTime = h.Clock.Now()
		out.Elapsed = h.Clock.Elapsed().String()
		out.Ticks = h.Result().Ticks
	})
	pace, _, running := f.Pacing()
	out.Paced, out.Pace = running, pace
	return out
}

// --- flow sub-resources ---

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	var st apiv1.Status
	f.View(func(m *core.Manager) {
		h := m.Harness()
		res := h.Result()
		st = apiv1.Status{
			Flow:          m.Spec().Name,
			SimTime:       h.Clock.Now(),
			Elapsed:       h.Clock.Elapsed().String(),
			Ticks:         res.Ticks,
			Offered:       res.Offered,
			Rejected:      res.Rejected,
			ViolationRate: res.ViolationRate,
			TotalCost:     res.TotalCost,
			PeakRunRate:   res.PeakRunRate,
			Allocation: apiv1.Allocation{
				Shards: res.FinalAllocation.Shards,
				VMs:    res.FinalAllocation.VMs,
				WCU:    res.FinalAllocation.WCU,
				RCU:    res.FinalAllocation.RCU,
			},
		}
	})
	writeJSON(w, http.StatusOK, st)
}

// layerMetric maps a layer to its primary utilisation metric.
func layerMetric(kind flow.LayerKind, name string) (ns, metric string, dims map[string]string) {
	switch kind {
	case flow.Ingestion:
		return stream.Namespace, stream.MetricWriteUtilization, map[string]string{"StreamName": name}
	case flow.Analytics:
		return compute.Namespace, compute.MetricCPUUtilization, map[string]string{"Topology": name}
	case flow.Storage:
		return kvstore.Namespace, kvstore.MetricWriteUtilization, map[string]string{"TableName": name}
	case flow.StorageReads:
		return kvstore.Namespace, kvstore.MetricReadUtilization, map[string]string{"TableName": name}
	}
	return "", "", nil
}

func (s *Server) handleLayers(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	var out []apiv1.Layer
	f.View(func(m *core.Manager) { out = layerViews(m) })
	writeJSON(w, http.StatusOK, out)
}

// layerViews builds a flow's per-layer view — allocation, latest and mean
// utilisation, violations, controller state — with the dashboard's read
// capacity, when enabled, as the virtual StorageReads layer. GET
// .../layers serves it as JSON and the HTML dashboard renders it as
// cards. Call it inside Flow.View.
func layerViews(m *core.Manager) []apiv1.Layer {
	h := m.Harness()
	spec := m.Spec()
	res := h.Result()
	layers := spec.Layers
	if spec.Dashboard.Enabled {
		layers = append(layers[:len(layers):len(layers)], flow.LayerSpec{
			Kind: flow.StorageReads, System: "dynamodb-sim", Resource: "rcu",
			Min: spec.Dashboard.MinRCU, Max: spec.Dashboard.MaxRCU,
		})
	}
	var out []apiv1.Layer
	for _, l := range layers {
		lr := apiv1.Layer{
			Kind:       l.Kind,
			System:     l.System,
			Resource:   l.Resource,
			Min:        l.Min,
			Max:        l.Max,
			MeanUtil:   res.MeanUtil[l.Kind],
			Violations: res.Violations[l.Kind],
		}
		switch l.Kind {
		case flow.Ingestion:
			lr.Allocation = float64(h.Stream.ShardCount())
		case flow.Analytics:
			lr.Allocation = float64(h.Cluster.VMCount())
		case flow.Storage:
			lr.Allocation = h.Table.WCU()
		case flow.StorageReads:
			lr.Allocation = h.Table.RCU()
		}
		if ns, metric, dims := layerMetric(l.Kind, spec.Name); ns != "" {
			if mh, ok := h.Store.Lookup(ns, metric, dims); ok {
				if p, ok := mh.Latest(); ok {
					lr.Utilization = p.V
				}
			}
		}
		if loop, ok := h.Loops[l.Kind]; ok {
			lr.Controller = controllerJSON(loop)
		}
		out = append(out, lr)
	}
	return out
}

// controllerJSON renders a loop's controller state.
func controllerJSON(loop *control.Loop) *apiv1.Controller {
	cr := &apiv1.Controller{
		Type:     loop.Controller().Name(),
		Ref:      loop.Ref(),
		Window:   loop.Window().String(),
		DeadBand: loop.DeadBand(),
		Actions:  loop.Actions(),
	}
	if ag, ok := loop.Controller().(*control.AdaptiveGain); ok {
		cr.Gain = ag.Gain()
	}
	return cr
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	kind := r.PathValue("kind")
	n := 20
	if raw := r.URL.Query().Get("n"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed <= 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid n %q", raw)
			return
		}
		n = parsed
	}
	var out []apiv1.Decision
	found := false
	f.View(func(m *core.Manager) {
		loop, ok := m.Harness().Loops[flow.LayerKind(kind)]
		if !ok {
			return
		}
		found = true
		all := loop.Decisions()
		if len(all) > n {
			all = all[len(all)-n:]
		}
		out = make([]apiv1.Decision, len(all))
		for i, d := range all {
			out[i] = apiv1.Decision{
				At: d.At, Measured: d.Measured, Ref: d.Ref,
				OldU: d.OldU, NewU: d.NewU, Applied: d.Applied, Note: d.Note,
			}
		}
	})
	if !found {
		writeError(w, http.StatusNotFound, apiv1.CodeNotFound, "no controller for layer %q", kind)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTuneController(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	var req apiv1.TuneRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid body: %v", err)
		return
	}
	// Validate before touching the loop so a half-valid request changes
	// nothing.
	if req.Ref != nil && (*req.Ref <= 0 || *req.Ref > 100) {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "ref %v outside (0, 100]", *req.Ref)
		return
	}
	var window time.Duration
	if req.Window != nil {
		d, err := time.ParseDuration(*req.Window)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid window %q", *req.Window)
			return
		}
		window = d
	}
	if req.DeadBand != nil && *req.DeadBand < 0 {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "negative dead_band")
		return
	}

	kind := r.PathValue("kind")
	// The mutation goes through Flow.Tune — not straight to the loop —
	// so it is WAL-appended before it is applied and survives a restart.
	var windowPtr *time.Duration
	if req.Window != nil {
		windowPtr = &window
	}
	found, err := f.Tune(flow.LayerKind(kind), req.Ref, req.DeadBand, windowPtr)
	if err != nil {
		if !wroteDegraded(w, err) {
			writeError(w, http.StatusInternalServerError, apiv1.CodeInternal, "tune: %v", err)
		}
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, apiv1.CodeNotFound, "no controller for layer %q", kind)
		return
	}
	var out *apiv1.Controller
	f.View(func(m *core.Manager) {
		if loop, ok := m.Harness().Loops[flow.LayerKind(kind)]; ok {
			out = controllerJSON(loop)
		}
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleListMetrics(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	out := make(map[string][]apiv1.MetricID)
	f.View(func(m *core.Manager) {
		store := m.Store()
		for _, ns := range store.Namespaces() {
			for _, id := range store.ListMetrics(ns) {
				out[ns] = append(out[ns], apiv1.MetricID{
					Namespace: id.Namespace, Name: id.Name, Dimensions: id.Dimensions,
				})
			}
		}
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleQueryMetrics(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	q := r.URL.Query()
	wire := apiv1.BatchQuerySelector{
		Namespace: q.Get("ns"), Name: q.Get("name"), Dimensions: make(map[string]string),
		Stat: q.Get("stat"), Window: q.Get("window"), Period: q.Get("period"),
	}
	for key, vals := range q {
		if rest, found := strings.CutPrefix(key, "dim."); found && len(vals) > 0 {
			wire.Dimensions[rest] = vals[0]
		}
	}
	// The batch selector rules, except that this route always buckets: a
	// zero period (raw datapoints on batchQuery) is invalid here.
	sel, argErr := parseSelector(wire)
	if argErr == nil && sel.period == 0 {
		argErr = &apiv1.Error{Code: apiv1.CodeInvalidArgument, Message: "invalid period " + wire.Period}
	}
	if argErr != nil {
		writeError(w, http.StatusBadRequest, argErr.Code, "%s", argErr.Message)
		return
	}
	// Pagination over the aggregated points: limit 0 means everything.
	limit, offset := 0, 0
	if raw := q.Get("limit"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid limit %q", raw)
			return
		}
		limit = parsed
	}
	if raw := q.Get("offset"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid offset %q", raw)
			return
		}
		offset = parsed
	}

	var col colResult
	f.View(func(m *core.Manager) { col = evalSelectorsLocked(m, []selector{sel})[0] })
	if col.err != nil {
		writeError(w, http.StatusNotFound, col.err.Code, "query: %s", col.err.Message)
		return
	}

	total := len(col.ts)
	resp := apiv1.Series{
		Namespace: sel.ns, Name: sel.name,
		Stat: sel.stat.String(), Period: sel.period.String(),
		Total: total, Offset: offset, Limit: limit,
		Points: []apiv1.Point{},
	}
	end := total
	if limit > 0 && offset+limit < end {
		end = offset + limit
		next := end
		resp.NextOffset = &next
	}
	for i := offset; i < end; i++ {
		resp.Points = append(resp.Points, apiv1.Point{T: time.Unix(0, col.ts[i]).UTC(), V: col.vs[i]})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	window := 30 * time.Minute
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid window %q", raw)
			return
		}
		window = d
	}
	var snap monitor.Snapshot
	f.View(func(m *core.Manager) { snap = m.Snapshot(window) })
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleDependencies(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	var out []apiv1.Dependency
	var err error
	f.View(func(m *core.Manager) {
		found, analyzeErr := m.AnalyzeDependencies()
		if analyzeErr != nil {
			err = analyzeErr
			return
		}
		out = make([]apiv1.Dependency, 0, len(found))
		for _, d := range found {
			out = append(out, apiv1.Dependency{
				From:        d.From.String(),
				To:          d.To.String(),
				Slope:       d.Model.Slope,
				Intercept:   d.Model.Intercept,
				R2:          d.Model.R2,
				Correlation: d.Correlation,
				Lag:         d.Lag,
				Samples:     d.Samples,
				Equation:    d.String(),
			})
		}
	})
	if err != nil {
		writeError(w, http.StatusConflict, apiv1.CodeConflict, "dependency analysis: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	raw := r.URL.Query().Get("d")
	if raw == "" {
		var req apiv1.AdvanceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument,
				"need ?d= or JSON {\"duration\": ...}: %v", err)
			return
		}
		raw = req.Duration
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid duration %q", raw)
		return
	}
	if err := f.CheckAdvance(d); err != nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "duration %v: %v", d, err)
		return
	}
	res, err := f.Advance(d)
	if err != nil {
		writeError(w, http.StatusInternalServerError, apiv1.CodeInternal, "advance: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, apiv1.AdvanceResult{
		Advanced:      d.String(),
		Ticks:         res.Ticks,
		ViolationRate: res.ViolationRate,
		TotalCost:     res.TotalCost,
	})
}

func (s *Server) handlePace(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	var req apiv1.PaceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid body: %v", err)
		return
	}
	if req.Pace < 0 {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "negative pace %v", req.Pace)
		return
	}
	if req.Pace == 0 {
		if err := f.StopPacing(); err != nil {
			if !wroteDegraded(w, err) {
				writeError(w, http.StatusInternalServerError, apiv1.CodeInternal, "stop pacing: %v", err)
			}
			return
		}
		writeJSON(w, http.StatusOK, apiv1.PaceState{Running: false})
		return
	}
	wallTick := defaultWallTick
	if req.WallTick != "" {
		d, err := time.ParseDuration(req.WallTick)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid wall_tick %q", req.WallTick)
			return
		}
		wallTick = d
	}
	if err := f.StartPacing(req.Pace, wallTick); err != nil {
		if !wroteDegraded(w, err) {
			writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "pace: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, paceState(f))
}

func (s *Server) handlePaceState(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	writeJSON(w, http.StatusOK, paceState(f))
}

func paceState(f *registry.Flow) apiv1.PaceState {
	pace, wallTick, running := f.Pacing()
	st := apiv1.PaceState{Running: running, Pace: pace}
	if running {
		st.WallTick = wallTick.String()
	}
	if err := f.PaceError(); err != nil {
		st.Error = err.Error()
	}
	return st
}
