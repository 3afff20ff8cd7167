package httpapi

import (
	"encoding/json"
	"net/http"

	apiv1 "repro/api/v1"
	"repro/internal/query"
	"repro/internal/telemetry"
)

// POST /v1/query: the query plane. One pipeline query — pipe syntax or
// JSON AST — evaluated by the streaming engine (internal/query) across
// every flow in the registry, answered as compact columnar JSON like the
// batch endpoint; ?explain=1 returns the plan without running it. All
// rejections (syntax, stage order, limits) are 400 invalid_argument; an
// empty match is an empty result, not an error.

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req apiv1.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "invalid body: %v", err)
		return
	}
	if req.Q == "" && req.Plan == nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "q (pipe syntax) or plan (JSON AST) is required")
		return
	}

	planStart := telemetry.Now()
	pl, err := query.Prepare(query.FromRegistry(s.reg), req.Q, req.Plan)
	planNanos := telemetry.SinceNanos(planStart)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiv1.CodeInvalidArgument, "%v", err)
		return
	}

	if r.URL.Query().Get("explain") == "1" {
		ex := pl.Explain()
		writeJSON(w, http.StatusOK, apiv1.QueryExplainResponse{Steps: ex.Steps, Text: ex.Text()})
		return
	}

	execStart := telemetry.Now()
	res, err := pl.Run()
	if err != nil {
		writeError(w, http.StatusInternalServerError, apiv1.CodeInternal, "%v", err)
		return
	}
	resp := apiv1.QueryResponse{
		Results: make([]apiv1.QuerySeries, len(res.Series)),
		Stats: apiv1.QueryStats{
			Series:    len(res.Series),
			Rows:      res.Rows,
			PlanNanos: planNanos,
			ExecNanos: telemetry.SinceNanos(execStart),
		},
	}
	for i, ser := range res.Series {
		out := apiv1.QuerySeries{
			Flow: ser.Flow, Namespace: ser.Namespace, Name: ser.Name,
			Dims: ser.Dims, Right: ser.Right,
			Ts: ser.Ts, Vs: ser.Vs, Vs2: ser.Vs2,
		}
		if out.Ts == nil {
			out.Ts = []int64{}
		}
		if out.Vs == nil {
			out.Vs = []float64{}
		}
		resp.Results[i] = out
	}
	// Compact JSON: columnar bulk path, same as the batch endpoint.
	writeJSONCompact(w, http.StatusOK, resp)
}
