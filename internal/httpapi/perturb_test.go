package httpapi

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

// flowRecord is what a flow's run leaves behind for its readers: every
// layer's decision log, then every published metric's timestamp and value
// columns, floats as bit patterns so "equal" means bit-identical.
type flowRecord struct {
	decisions []string
	columns   []string
}

func recordFlow(f *registry.Flow) flowRecord {
	var rec flowRecord
	f.View(func(m *core.Manager) {
		loops := m.Harness().Loops
		kinds := make([]flow.LayerKind, 0, len(loops))
		for kind := range loops {
			kinds = append(kinds, kind)
		}
		slices.Sort(kinds)
		for _, kind := range kinds {
			for _, d := range loops[kind].Decisions() {
				rec.decisions = append(rec.decisions, fmt.Sprintf("%s %d %x %x %x %x %t %q", kind, d.At.UnixNano(),
					math.Float64bits(d.Measured), math.Float64bits(d.Ref), math.Float64bits(d.OldU), math.Float64bits(d.NewU),
					d.Applied, d.Note))
			}
		}
		m.Store().Each(func(id metricstore.MetricID, v timeseries.View) {
			var b strings.Builder
			b.WriteString(id.Key())
			for i := 0; i < v.Len(); i++ {
				fmt.Fprintf(&b, " %d:%x", v.NanoAt(i), math.Float64bits(v.ValueAt(i)))
			}
			rec.columns = append(rec.columns, b.String())
		})
	})
	return rec
}

// firstDiff names the first entry where a and b differ, with its head
// and the text around the first differing byte ("" when equal).
func firstDiff(a, b []string) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			j := 0
			for j < min(len(a[i]), len(b[i])) && a[i][j] == b[i][j] {
				j++
			}
			around := func(s string) string { return s[max(0, j-40):min(len(s), j+40)] }
			return fmt.Sprintf("entry %d (%.60s), byte %d:\n read-against …%s…\n untouched    …%s…",
				i, a[i], j, around(a[i]), around(b[i]))
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d entries read-against, %d untouched", len(a), len(b))
	}
	return ""
}

// TestReadsDoNotPerturb holds the read plane to having no effect on what
// it reads: two flows built from the same spec and seed advance in the
// same chunks while every read route and a watch stream hammer one of
// them, and both must end with identical decision logs and metric
// columns. Every route is served at least once between two chunks, so
// the reads interleave with the whole run.
func TestReadsDoNotPerturb(t *testing.T) {
	reg := registry.New()
	t.Cleanup(reg.Close)
	spec, err := flow.DefaultClickstream(2000)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "clicks"
	create := func(id string) *registry.Flow {
		f, err := reg.Create(id, spec, sim.Options{Step: 10 * time.Second, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := create("a"), create("b")
	const chunk, chunks = 4 * time.Minute, 30
	advance := func() {
		t.Helper()
		for _, f := range []*registry.Flow{a, b} {
			if _, err := f.Advance(chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	advance() // the read routes answer 404 for metrics that have no points yet

	s := NewServer(reg)
	t.Cleanup(s.Lab().Close)
	ts := httptest.NewServer(s)
	defer ts.Close()

	reads := []struct{ method, path, body string }{
		{http.MethodGet, "/v1/flows/a/metrics/query?ns=Ingestion/Stream&name=IncomingRecords&dim.StreamName=clicks&window=15m&period=1m", ""},
		{http.MethodPost, "/v1/metrics:batchQuery",
			`{"queries": [{"flow": "a", "ns": "Analytics/Compute", "name": "CPUUtilization", "window": "15m", "period": "1m"}]}`},
		{http.MethodPost, "/v1/query",
			`{"q": "select flow=a ns=Storage/KVStore name=ConsumedWriteCapacityUnits | window 30m | resample 1m p99"}`},
		{http.MethodGet, "/v1/flows/a/snapshot", ""},
		{http.MethodGet, "/v1/flows/a/dashboard", ""},
	}
	stop := make(chan struct{})
	served := make([]atomic.Int64, len(reads))
	var wg sync.WaitGroup
	stopReads := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReads()
	for i, r := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
				if rec.Code != http.StatusOK {
					t.Errorf("%s %s: status %d (%s)", r.method, r.path, rec.Code, rec.Body.String())
					return
				}
				served[i].Add(1)
			}
		}()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := startStream(t, ctx, ts, "/v1/flows/a/watch", nil)
	streamed := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := stream.ReadBytes('\n'); err != nil {
				streamed <- n
				return
			}
			n++
		}
	}()

	seen := make([]int64, len(reads))
	for range chunks - 1 {
		for i := range served {
			for served[i].Load() == seen[i] && !t.Failed() {
				time.Sleep(100 * time.Microsecond)
			}
			seen[i] = served[i].Load()
		}
		advance()
	}
	stopReads()
	cancel()
	if n := <-streamed; n < chunks-1 {
		t.Errorf("watch stream carried %d records over %d advances", n, chunks-1)
	}

	got, want := recordFlow(a), recordFlow(b)
	if len(want.decisions) == 0 || len(want.columns) == 0 {
		t.Fatalf("untouched flow recorded %d decisions and %d columns", len(want.decisions), len(want.columns))
	}
	if d := firstDiff(got.decisions, want.decisions); d != "" {
		t.Errorf("decision logs differ at %s", d)
	}
	if d := firstDiff(got.columns, want.columns); d != "" {
		t.Errorf("metric columns differ at %s", d)
	}
}
