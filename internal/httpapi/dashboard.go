package httpapi

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/timeseries"
)

// The HTML dashboard: a server-rendered, dependency-free page consolidating
// every platform's measures in one place — the all-in-one-place visualizer
// of §3.4 without the drag-and-drop front end. Sparklines are inline SVG
// rendered from the last dashboard window; the page refreshes itself so a
// paced run can be watched live. Every flow has its own dashboard at
// /v1/flows/{id}/dashboard; the root serves the default flow's, or an
// index of all flows when no single default exists.

var dashboardTmpl = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="3">
<title>Flower — {{.Flow}}</title>
<style>
  body { font-family: -apple-system, system-ui, sans-serif; margin: 2rem; background: #fafafa; color: #222; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
  .cards { display: flex; gap: 1rem; flex-wrap: wrap; }
  .card { background: #fff; border: 1px solid #ddd; border-radius: 8px; padding: 1rem; min-width: 16rem; }
  .card .big { font-size: 1.6rem; font-weight: 600; }
  .muted { color: #777; font-size: .85rem; }
  table { border-collapse: collapse; background: #fff; }
  th, td { border: 1px solid #ddd; padding: .3rem .6rem; font-size: .85rem; text-align: right; }
  th:first-child, td:first-child { text-align: left; }
  svg polyline { fill: none; stroke: #4271ae; stroke-width: 1.5; }
  .viol { color: #b00020; }
</style>
</head>
<body>
<h1>Flower — flow “{{.Flow}}”</h1>
<p class="muted">simulated time {{.SimTime}} · elapsed {{.Elapsed}} · {{.Ticks}} ticks ·
cost ${{printf "%.4f" .TotalCost}} · violation rate {{printf "%.2f" .ViolationPct}}%</p>

<div class="cards">
{{range .Layers}}
  <div class="card">
    <h2>{{.Kind}} <span class="muted">({{.System}})</span></h2>
    <div class="big">{{printf "%.0f" .Allocation}} {{.Resource}}</div>
    <div>utilisation {{printf "%.1f" .Utilization}}% {{.Spark}}</div>
    {{with .Controller}}<div class="muted">controller {{.Type}} · ref {{printf "%.0f" .Ref}}% ·
      window {{.Window}} · {{.Actions}} actions</div>{{end}}
    {{if .Violations}}<div class="viol">{{.Violations}} violation ticks</div>{{end}}
  </div>
{{end}}
</div>

<h2>All platforms, one place</h2>
<table>
<tr><th>metric</th><th>last</th><th>mean</th><th>min</th><th>max</th><th>trend ({{.Window}})</th></tr>
{{range .Rows}}
<tr><td>{{.Name}}</td><td>{{printf "%.2f" .Last}}</td><td>{{printf "%.2f" .Mean}}</td>
<td>{{printf "%.2f" .Min}}</td><td>{{printf "%.2f" .Max}}</td><td>{{.Spark}}</td></tr>
{{end}}
</table>
{{if .Alarms}}<h2 class="viol">Alarms</h2><ul>{{range .Alarms}}<li class="viol">{{.}}</li>{{end}}</ul>{{end}}
<p class="muted">POST /v1/flows/{{.ID}}/advance?d=10m to move simulated time ·
GET /v1/flows/{{.ID}}/status for JSON · <a href="/">all flows</a></p>
</body>
</html>
`))

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="3">
<title>Flower — flows</title>
<style>
  body { font-family: -apple-system, system-ui, sans-serif; margin: 2rem; background: #fafafa; color: #222; }
  h1 { font-size: 1.4rem; }
  table { border-collapse: collapse; background: #fff; }
  th, td { border: 1px solid #ddd; padding: .3rem .6rem; font-size: .9rem; text-align: right; }
  th:first-child, td:first-child { text-align: left; }
  .muted { color: #777; font-size: .85rem; }
</style>
</head>
<body>
<h1>Flower — {{len .Flows}} managed flows</h1>
<table>
<tr><th>flow</th><th>sim time</th><th>ticks</th><th>pace</th></tr>
{{range .Flows}}
<tr><td><a href="/v1/flows/{{.ID}}/dashboard">{{.ID}}</a></td>
<td>{{.SimTime}}</td><td>{{.Ticks}}</td><td>{{.Pace}}</td></tr>
{{end}}
</table>
<p class="muted">POST /v1/flows to create a flow · GET /v1/flows for JSON</p>
</body>
</html>
`))

// dashboardLayer is one card: the layer's /layers view plus its
// utilisation sparkline.
type dashboardLayer struct {
	apiv1.Layer
	Spark template.HTML
}

type dashboardRow struct {
	Name  string
	Last  float64
	Mean  float64
	Min   float64
	Max   float64
	Spark template.HTML
}

type dashboardData struct {
	ID           string
	Flow         string
	SimTime      string
	Elapsed      string
	Ticks        int
	TotalCost    float64
	ViolationPct float64
	Window       string
	Layers       []dashboardLayer
	Rows         []dashboardRow
	Alarms       []string
}

// sparkSelector is the batch-query shape of one sparkline: a one-minute
// mean resample of the metric's trailing window. The dashboard collects
// every panel's selector and evaluates them in one grouped pass through
// the same evalSelectorsLocked the POST /v1/metrics:batchQuery endpoint
// uses — one batch evaluation per render instead of one store query per
// sparkline.
func sparkSelector(ns, metric string, dims map[string]string, window time.Duration) selector {
	return selector{ns: ns, name: metric, dims: dims, window: window, period: time.Minute, stat: timeseries.AggMean}
}

// sparkSVG renders values as a small inline SVG polyline.
func sparkSVG(vals []float64, w, h int) template.HTML {
	if len(vals) < 2 {
		return ""
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	span := max - min
	if span == 0 {
		span = 1
	}
	var pts strings.Builder
	for i, v := range vals {
		x := float64(i) / float64(len(vals)-1) * float64(w)
		y := float64(h) - (v-min)/span*float64(h-2) - 1
		fmt.Fprintf(&pts, "%.1f,%.1f ", x, y)
	}
	svg := fmt.Sprintf(`<svg width="%d" height="%d" viewBox="0 0 %d %d"><polyline points="%s"/></svg>`,
		w, h, w, h, strings.TrimSpace(pts.String()))
	return template.HTML(svg)
}

// handleRoot serves the default flow's dashboard, falling back to the flow
// index when no single default flow exists.
func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if f, ok := s.defaultFlow(); ok {
		s.handleDashboard(w, r, f)
		return
	}
	flows := s.reg.List()
	type row struct {
		ID      string
		SimTime string
		Ticks   int
		Pace    float64
	}
	data := struct{ Flows []row }{}
	for _, f := range flows {
		ro := row{ID: f.ID()}
		f.View(func(m *core.Manager) {
			ro.SimTime = m.Harness().Clock.Now().Format("2006-01-02 15:04:05")
			ro.Ticks = m.Harness().Result().Ticks
		})
		ro.Pace, _, _ = f.Pacing()
		data.Flows = append(data.Flows, ro)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTmpl.Execute(w, data)
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request, f *registry.Flow) {
	window := 30 * time.Minute
	if raw := r.URL.Query().Get("window"); raw != "" {
		if d, err := time.ParseDuration(raw); err == nil && d > 0 {
			window = d
		}
	}

	var data dashboardData
	f.View(func(m *core.Manager) {
		h := m.Harness()
		spec := m.Spec()
		res := h.Result()
		now := h.Clock.Now()
		snap := m.Snapshot(window)

		data = dashboardData{
			ID:           f.ID(),
			Flow:         spec.Name,
			SimTime:      now.Format("2006-01-02 15:04:05"),
			Elapsed:      h.Clock.Elapsed().String(),
			Ticks:        res.Ticks,
			TotalCost:    res.TotalCost,
			ViolationPct: 100 * res.ViolationRate,
			Window:       window.String(),
			Alarms:       snap.Alarms,
		}
		// First pass: collect the panels and the selector of every
		// sparkline; layerSpark[i] indexes sels for data.Layers[i] (-1:
		// no sparkline). The row sparklines follow in section order.
		var sels []selector
		var layerSpark []int
		for _, l := range layerViews(m) {
			spark := -1
			if ns, metric, dims := layerMetric(l.Kind, spec.Name); ns != "" {
				spark = len(sels)
				sels = append(sels, sparkSelector(ns, metric, dims, window))
			}
			data.Layers = append(data.Layers, dashboardLayer{Layer: l})
			layerSpark = append(layerSpark, spark)
		}
		for _, section := range snap.Sections {
			for _, sm := range section.Metrics {
				data.Rows = append(data.Rows, dashboardRow{
					Name: sm.ID.String(),
					Last: sm.Last, Mean: sm.Mean, Min: sm.Min, Max: sm.Max,
				})
				sels = append(sels, sparkSelector(sm.ID.Namespace, sm.ID.Name, sm.ID.Dimensions, window))
			}
		}

		// Second pass: one grouped evaluation answers every sparkline.
		cols := evalSelectorsLocked(m, sels)
		for i, spark := range layerSpark {
			if spark >= 0 && cols[spark].err == nil {
				data.Layers[i].Spark = sparkSVG(cols[spark].vs, 120, 24)
			}
		}
		next := len(sels) - len(data.Rows) // row selectors are the tail of sels
		for i := range data.Rows {
			if c := cols[next+i]; c.err == nil {
				data.Rows[i].Spark = sparkSVG(c.vs, 120, 18)
			}
		}
	})

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTmpl.Execute(w, data); err != nil {
		// Headers are out; log-equivalent: nothing further to do.
		_ = err
	}
}
