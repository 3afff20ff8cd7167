package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/injectfs"
	"repro/internal/metricstore"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"
)

func base() time.Time { return time.Unix(1700000000, 0).UTC() }

// fill puts a small deterministic data set — 50 points, 10s apart, in
// each of two series — into the store.
func fill(s *metricstore.Store) {
	dims := map[string]string{"StreamName": "clicks"}
	for i := 0; i < 50; i++ {
		at := base().Add(time.Duration(i) * 10 * time.Second)
		storePut(s, "Ingestion/Stream", "IncomingRecords", dims, at, float64(i*100))
		storePut(s, "Analytics/Compute", "CPUUtilization",
			map[string]string{"Topology": "clicks"}, at, 4.8+0.1*float64(i))
	}
}

// loggedStore returns a fresh store whose every Put lands in f as a
// metric.put record.
func loggedStore(f *injectfs.File) (*metricstore.Store, *WAL) {
	s := metricstore.NewStore()
	w := NewWAL(f, WALOptions{NoSync: true})
	w.LogMetrics(s)
	return s, w
}

// metricFrames frames n datapoints of metric a/b, one second apart.
func metricFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	f := injectfs.New()
	s, _ := loggedStore(f)
	for i := 0; i < n; i++ {
		storePut(s, "a", "b", nil, base().Add(time.Duration(i)*time.Second), float64(i))
	}
	return bytes.SplitAfter(bytes.TrimSuffix(f.Bytes(), []byte{'\n'}), []byte{'\n'})
}

// storesEqual compares every series of two stores.
func storesEqual(t *testing.T, a, b *metricstore.Store) {
	t.Helper()
	nsA, nsB := a.Namespaces(), b.Namespaces()
	if len(nsA) != len(nsB) {
		t.Fatalf("namespaces %v vs %v", nsA, nsB)
	}
	for _, ns := range nsA {
		idsA := a.ListMetrics(ns)
		if len(idsA) != len(b.ListMetrics(ns)) {
			t.Fatalf("%s: metric counts differ", ns)
		}
		for _, id := range idsA {
			sa := storeRaw(a, id.Namespace, id.Name, id.Dimensions)
			sb := storeRaw(b, id.Namespace, id.Name, id.Dimensions)
			if sa.Len() != sb.Len() {
				t.Fatalf("%s: %d vs %d points", id, sa.Len(), sb.Len())
			}
			for i := 0; i < sa.Len(); i++ {
				pa, pb := sa.At(i), sb.At(i)
				if !pa.T.Equal(pb.T) || pa.V != pb.V {
					t.Fatalf("%s point %d: %v=%v vs %v=%v", id, i, pa.T, pa.V, pb.T, pb.V)
				}
			}
		}
	}
}

func TestMetricLogReplayRoundTrip(t *testing.T) {
	f := injectfs.New()
	src, w := loggedStore(f)
	fill(src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 100 {
		t.Fatalf("logged %d records, want 100", w.Records())
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(f.Bytes(), []byte{'\n'}), []byte{'\n'}) {
		if !bytes.HasPrefix(line, []byte("w1 ")) {
			t.Fatalf("line %d is not a WAL frame: %q", i+1, line)
		}
	}

	replayed := metricstore.NewStore()
	n, err := Replay(bytes.NewReader(f.Bytes()), replayed)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("replayed %d records, want 100", n)
	}
	storesEqual(t, src, replayed)
}

func TestFileMetricLogAppendAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.wal")

	write := func(vals []float64, offset int) {
		w, err := OpenFileWAL(path, WALOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		s := metricstore.NewStore()
		w.LogMetrics(s)
		for i, v := range vals {
			storePut(s, "NS", "M", nil, base().Add(time.Duration(offset+i)*time.Second), v)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write([]float64{1, 2, 3}, 0)
	write([]float64{4, 5}, 3) // append across process restarts

	store := metricstore.NewStore()
	n, err := ReplayFile(path, store)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("replayed %d, want 5", n)
	}
	series := storeRaw(store, "NS", "M", nil)
	want := []float64{1, 2, 3, 4, 5}
	got := series.Values()
	if len(got) != len(want) {
		t.Fatalf("values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}

	if _, err := ReplayFile(filepath.Join(t.TempDir(), "absent.wal"), store); err == nil {
		t.Error("replay of a missing file succeeded")
	}
}

func TestReplayRejectsMidFileCorruption(t *testing.T) {
	frames := metricFrames(t, 3)
	// A flipped byte followed by more records is corruption, not a torn
	// tail: replay fails naming the line and applies nothing past it.
	bad := append([]byte(nil), frames[1]...)
	bad[len(bad)/2] ^= 0x01
	store := metricstore.NewStore()
	n, err := Replay(bytes.NewReader(bytes.Join([][]byte{frames[0], bad, frames[2]}, nil)), store)
	if err == nil || errors.Is(err, ErrTornTail) {
		t.Fatalf("mid-file corruption: err = %v", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name line 2: %v", err)
	}
	if n != 0 || len(store.Namespaces()) != 0 {
		t.Errorf("applied %d records from a corrupt log", n)
	}

	// The old JSONL journal is not a log this reader accepts.
	old := `{"v":1,"ns":"a","name":"b","t":1,"val":2}` + "\n" + `{"v":1,"ns":"a","name":"b","t":2,"val":3}` + "\n"
	if _, err := Replay(strings.NewReader(old), store); err == nil || !strings.Contains(err.Error(), "line 1: corrupt mid-file: bad magic") {
		t.Errorf("old-format journal: err = %v", err)
	}
}

func TestReplayRejectsForeignOps(t *testing.T) {
	// A control-plane record in a metric log is a hard error naming the
	// line; the datapoints before it stay applied.
	f := injectfs.New()
	s, w := loggedStore(f)
	storePut(s, "a", "b", nil, base(), 1)
	if _, err := w.Append(OpFlowDelete, FlowDeleteOp{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	storePut(s, "a", "b", nil, base().Add(time.Second), 2)
	n, err := Replay(bytes.NewReader(f.Bytes()), metricstore.NewStore())
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), OpFlowDelete) {
		t.Fatalf("foreign op: err = %v", err)
	}
	if n != 1 {
		t.Errorf("applied %d before the foreign op, want 1", n)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	// A log cut off mid-record by a crash replays up to the last complete
	// record — standard write-ahead-log recovery semantics. The torn tail
	// is reported via the ErrTornTail sentinel (and counted) so callers
	// can distinguish "recovered after a crash" from a pristine replay,
	// but every complete record is still applied and counted.
	frames := metricFrames(t, 3)
	in := bytes.Join([][]byte{frames[0], frames[1], frames[2][:len(frames[2])/2]}, nil)
	before := telWALTornTails.Value()
	store := metricstore.NewStore()
	n, err := Replay(bytes.NewReader(in), store)
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("err = %v, want ErrTornTail", err)
	}
	if n != 2 || storeRaw(store, "a", "b", nil).Len() != 2 {
		t.Errorf("applied %d, want 2 complete records", n)
	}
	if got := telWALTornTails.Value() - before; got != 1 {
		t.Errorf("flower_persist_wal_torn_tails_total moved by %d, want 1", got)
	}
}

func TestReplaySkipsBlankLines(t *testing.T) {
	frames := metricFrames(t, 2)
	in := "\n" + string(frames[0]) + "\n" + string(frames[1]) + "\n"
	n, err := Replay(strings.NewReader(in), metricstore.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("applied %d, want 2", n)
	}
}

func TestMetricLogStickyError(t *testing.T) {
	f := injectfs.New()
	s, w := loggedStore(f)
	storePut(s, "NS", "M", nil, base(), 1)
	// The disk fills: the store keeps accepting datapoints (a failing log
	// must not interrupt the simulation), the log refuses everything after
	// the first lost write, and Close reports it.
	f.FailWritesAfter(0, nil)
	storePut(s, "NS", "M", nil, base().Add(time.Second), 2)
	f.FailWritesAfter(-1, nil)
	storePut(s, "NS", "M", nil, base().Add(2*time.Second), 3)
	if w.Records() != 1 {
		t.Errorf("logged %d records, want only the 1 before the failure", w.Records())
	}
	if err := w.Err(); !errors.Is(err, injectfs.ErrInjected) {
		t.Errorf("Err() = %v, want the injected write failure", err)
	}
	if err := w.Close(); !errors.Is(err, injectfs.ErrInjected) {
		t.Errorf("Close() = %v, want the sticky write failure", err)
	}
	if n, err := Replay(bytes.NewReader(f.Bytes()), metricstore.NewStore()); err != nil || n != 1 {
		t.Errorf("surviving log: %d records, err %v", n, err)
	}
}

func TestMetricLogUnencodableValueIsSticky(t *testing.T) {
	s, w := loggedStore(injectfs.New())
	storePut(s, "NS", "M", nil, base(), math.NaN()) // the store takes it; JSON cannot
	storePut(s, "NS", "M", nil, base().Add(time.Second), 1)
	if w.Records() != 0 {
		t.Errorf("logged %d records past a hole", w.Records())
	}
	if err := w.Close(); err == nil {
		t.Error("Close() = nil after a datapoint was dropped")
	}
}

// TestMetricLogQuickRoundTrip drives random metric streams through
// log→replay and asserts lossless reconstruction.
func TestMetricLogQuickRoundTrip(t *testing.T) {
	check := func(vals []float64, dimVal string) bool {
		f := injectfs.New()
		src, w := loggedStore(f)
		dims := map[string]string{"D": dimVal}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0 // JSON cannot carry them; the store never produces one
			}
			storePut(src, "NS", "M", dims, base().Add(time.Duration(i)*time.Second), vals[i])
		}
		if err := w.Close(); err != nil {
			return false
		}
		dst := metricstore.NewStore()
		n, err := Replay(bytes.NewReader(f.Bytes()), dst)
		if err != nil || n != len(vals) {
			return false
		}
		if len(vals) == 0 {
			return true // nothing logged, nothing to compare
		}
		got := storeRaw(dst, "NS", "M", dims)
		if got.Len() != len(vals) {
			return false
		}
		for i := 0; i < got.Len(); i++ {
			if math.Float64bits(got.At(i).V) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestReplayIntoStoreWithRetention replays a log into a store whose
// retention window is shorter than the logged history: replay must
// succeed, apply every record, and leave each series pruned to the
// retention window — the "recover a bounded live store from an unbounded
// log" path a restarting daemon takes.
func TestReplayIntoStoreWithRetention(t *testing.T) {
	f := injectfs.New()
	src, _ := loggedStore(f)
	fill(src) // 50 points per series, 10s apart (490s of history)

	dst := metricstore.NewStore()
	retention := 2 * time.Minute
	dst.SetRetention(retention)
	n, err := Replay(bytes.NewReader(f.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("replayed %d records, want 100", n)
	}

	series := storeRaw(dst, "Ingestion/Stream", "IncomingRecords", map[string]string{"StreamName": "clicks"})
	if series.Len() == 0 {
		t.Fatal("retention pruned the whole series")
	}
	if series.Len() >= 50 {
		t.Fatalf("retention kept all %d points; window is %v of a 490s history", series.Len(), retention)
	}
	last := series.At(series.Len() - 1)
	first := series.At(0)
	if last.T.Sub(first.T) > retention {
		t.Fatalf("surviving span %v exceeds retention %v", last.T.Sub(first.T), retention)
	}
	// The newest logged point must have survived verbatim.
	wantLast := base().Add(49 * 10 * time.Second)
	if !last.T.Equal(wantLast) || last.V != 4900 {
		t.Fatalf("tail point = %v/%v, want %v/4900", last.T, last.V, wantLast)
	}
}

// TestMetricLogSchedulerPacedFlow logs the metric store of a flow created
// through the registry and advanced by the execution plane's pacer (the
// scheduler path), not by direct Run calls, then replays the log into a
// fresh store and requires bit-equal series.
func TestMetricLogSchedulerPacedFlow(t *testing.T) {
	plane := sched.New(sched.Config{Shards: 2, Workers: 1})
	defer plane.Close()
	reg := registry.New(registry.WithScheduler(plane))
	defer reg.Close()

	spec, err := flow.DefaultClickstream(1500)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = "paced"
	f, err := reg.Create("paced", spec, sim.Options{Step: 10 * time.Second, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	log := injectfs.New()
	w := NewWAL(log, WALOptions{NoSync: true})
	f.View(func(m *core.Manager) { w.LogMetrics(m.Store()) })
	// Advance through the pacer (a scheduler job), not Run: 20 simulated
	// minutes per wall second at a 10ms tick.
	if err := f.StartPacing(1200, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		ticks := 0
		f.View(func(m *core.Manager) { ticks = m.Harness().Result().Ticks })
		if ticks >= 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pacer never advanced the flow")
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.StopPacing()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	dst := metricstore.NewStore()
	points, err := Replay(bytes.NewReader(log.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if points == 0 || points != w.Records() {
		t.Fatalf("replayed %d datapoints of %d logged", points, w.Records())
	}
	f.View(func(m *core.Manager) { storesEqual(t, m.Store(), dst) })
}

// TestCheckpointAtomicWrite pins atomicReplace's contract on the
// checkpoint: a successful write leaves exactly the destination, and a
// failed one leaves the previous checkpoint whole — never a torn file,
// never temp litter.
func TestCheckpointAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, CheckpointFileName)
	good := &ControlCheckpoint{LastSeq: 7, Flows: []FlowCheckpoint{{ID: "a"}}}
	if err := WriteControlCheckpoint(path, good); err != nil {
		t.Fatal(err)
	}
	// An unencodable document fails mid-write, after the temp file exists.
	bad := &ControlCheckpoint{LastSeq: 9, Flows: []FlowCheckpoint{{ID: "b", Spec: json.RawMessage("{")}}}
	if err := WriteControlCheckpoint(path, bad); err == nil {
		t.Fatal("unencodable checkpoint written")
	}
	got, err := ReadControlCheckpoint(path)
	if err != nil || got.LastSeq != 7 || len(got.Flows) != 1 || got.Flows[0].ID != "a" {
		t.Fatalf("checkpoint after failed replace: %+v, err %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean: %v", names)
	}
}

// TestCompactSyncsCheckpointDirBeforeRotatingWAL pins the power-loss
// order: the checkpoint's rename is made durable (directory fsync) before
// the WAL rotation that drops the records it covers even begins.
func TestCompactSyncsCheckpointDirBeforeRotatingWAL(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(OpFlowCreate, FlowCreateOp{ID: "a"}); err != nil {
		t.Fatal(err)
	}

	// At each directory sync, record which files exist.
	var atSync [][]string
	real := syncDir
	syncDir = func(d string) error {
		entries, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		atSync = append(atSync, names)
		return real(d)
	}
	defer func() { syncDir = real }()

	if err := l.CompactWith(func() *ControlCheckpoint { return &ControlCheckpoint{} }); err != nil {
		t.Fatal(err)
	}
	if len(atSync) != 2 {
		t.Fatalf("compaction synced the directory %d times, want 2 (checkpoint, WAL)", len(atSync))
	}
	hasCkpt := false
	for _, name := range atSync[0] {
		if name == CheckpointFileName {
			hasCkpt = true
		}
		if strings.HasPrefix(name, "."+WALFileName) {
			t.Errorf("WAL temp file %s exists before the checkpoint's directory sync", name)
		}
	}
	if !hasCkpt {
		t.Errorf("first directory sync ran before the checkpoint rename: %v", atSync[0])
	}
}
