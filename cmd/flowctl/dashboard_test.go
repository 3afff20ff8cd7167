package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/metricstore"
	"repro/internal/monitor"
	"repro/internal/persist"
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

// TestDashboardReplayTornTail replays a metric log whose last line was
// cut by a crash: the complete records render and the command exits 0.
// Corruption mid-file fails naming the line.
func TestDashboardReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	w, err := persist.OpenFileWAL(path, persist.WALOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	store := metricstore.NewStore()
	w.LogMetrics(store)
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		storePut(store, "Ingestion/Stream", "IncomingRecords", nil, at.Add(time.Duration(i)*time.Minute), float64(100*i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := replayDashboard(&out, path, 30*time.Minute); err != nil {
		t.Fatalf("torn tail failed the replay: %v", err)
	}
	for _, want := range []string{"replayed 2 datapoints", "Ingestion/Stream", at.Add(time.Minute).Format(time.RFC3339)} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("replayed dashboard missing %q in:\n%s", want, out.String())
		}
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"dashboard", "-replay", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("dashboard -replay over a torn tail: exit %d, want 0", code)
	}

	whole[len(whole)/2] ^= 0x01
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replayDashboard(&out, path, 30*time.Minute); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("mid-file corruption: err = %v, want one naming line 2", err)
	}
}
