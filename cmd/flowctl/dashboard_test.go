package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/metricstore"
	"repro/internal/monitor"
)

// TestRemoteDashboard renders a canned snapshot served the way flowerd
// serves it: through GET /v1/flows/{id}/snapshot and the client SDK.
func TestRemoteDashboard(t *testing.T) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	canned := monitor.Snapshot{
		At: at, Window: 15 * time.Minute,
		Sections: []monitor.SectionView{{
			Namespace: "Ingestion/Stream",
			Metrics: []monitor.MetricView{{
				ID:   metricstore.MetricID{Namespace: "Ingestion/Stream", Name: "IncomingRecords"},
				Last: 2900, Mean: 2500, Min: 100, Max: 3000, Spark: "▁▄█", Points: 90,
			}},
		}},
		Alarms: []string{"stream-hot"},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/flows/web/snapshot" || r.URL.Query().Get("window") != "15m0s" {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(canned)
	}))
	defer srv.Close()

	var out strings.Builder
	if err := remoteDashboard(context.Background(), &out, client.New(srv.URL), srv.URL, "web", 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`flow "web" on ` + srv.URL, "all-in-one-place monitor", "Ingestion/Stream", "IncomingRecords", "▁▄█", "stream-hot"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dashboard missing %q in:\n%s", want, out.String())
		}
	}
	if err := remoteDashboard(context.Background(), &out, client.New(srv.URL), srv.URL, "absent", time.Minute); err == nil {
		t.Error("snapshot of an unknown flow rendered")
	}
}
