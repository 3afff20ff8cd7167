package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/timeseries"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.sha256 from this run")

// runFingerprint hashes everything a run produces that the rest of the
// system reads: every control loop's decision log in layer order, then
// every published metric's full timestamp and value columns in key order.
// Floats are hashed by bit pattern, so "equal" means bit-identical.
func runFingerprint(t *testing.T, h *Harness) string {
	t.Helper()
	sum := sha256.New()
	var w [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		sum.Write(w[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		sum.Write([]byte(s))
	}
	for _, kind := range []flow.LayerKind{flow.Ingestion, flow.Analytics, flow.Storage, flow.StorageReads} {
		loop, ok := h.Loops[kind]
		if !ok {
			continue
		}
		ds := loop.Decisions()
		str(string(kind))
		u64(uint64(len(ds)))
		for _, d := range ds {
			u64(uint64(d.At.UnixNano()))
			f64(d.Measured)
			f64(d.Ref)
			f64(d.OldU)
			f64(d.NewU)
			if d.Applied {
				u64(1)
			} else {
				u64(0)
			}
			str(d.Note)
		}
	}
	h.Store.Each(func(id metricstore.MetricID, v timeseries.View) {
		str(id.Key())
		u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			u64(uint64(v.NanoAt(i)))
			f64(v.ValueAt(i))
		}
	})
	return hex.EncodeToString(sum.Sum(nil))
}

// TestGoldenClickstreamRun pins the default click-stream flow's decision
// log and metric columns after six simulated hours to a committed hash, so
// a storage or first-tick change that claims to be behaviour-neutral is
// checked bit for bit rather than asserted. Regenerate with
// `go test ./internal/sim -run TestGoldenClickstreamRun -update` only when a
// change is meant to alter the simulation's output.
func TestGoldenClickstreamRun(t *testing.T) {
	const golden = "testdata/clickstream_6h.sha256"
	spec, err := flow.DefaultClickstream(3000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(spec, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, golden, runFingerprint(t, h))
}

// checkGolden compares a run fingerprint with the hash committed at path,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("decision log + metric columns hash to %s, %s holds %s", got, path, strings.TrimSpace(string(want)))
	}
}

// TestGoldenPerRecordRuns pins the faithful per-record path's decision
// logs and metric columns on the default flow and on the three
// equivalence specs, so a change to how that path represents records is
// checked bit for bit. Regenerate with -update only when a change is meant
// to alter the per-record simulation's output.
func TestGoldenPerRecordRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs per-record simulations")
	}
	def, err := flow.DefaultClickstream(3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec flow.Spec
		d    time.Duration
	}{
		{"default", def, time.Hour},
		{"managed", managedSpec(t, 3000), 30 * time.Minute},
		{"static", staticSpec(t), 20 * time.Minute},
		{"overload", overloadSpec(t), 10 * time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := New(tc.spec, Options{Seed: 7, PerRecord: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Run(tc.d); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "testdata/perrecord_"+tc.name+".sha256", runFingerprint(t, h))
		})
	}
}

// TestChunkedRunMatchesOneCallRun pins that how a run is sliced into Run
// calls does not matter: the default flow advanced 6 h in one call and
// again in chunks of 10 s, 70 s and 15 min produces the same decision log
// and metric columns, bit for bit. Lab trials run as chunked scheduler
// jobs and paced flows advance a tick at a time, so both rely on this.
func TestChunkedRunMatchesOneCallRun(t *testing.T) {
	const total = 6 * time.Hour
	run := func(chunk time.Duration) string {
		spec, err := flow.DefaultClickstream(3000)
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(spec, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for done := time.Duration(0); done < total; done += chunk {
			if _, err := h.Run(min(chunk, total-done)); err != nil {
				t.Fatal(err)
			}
		}
		return runFingerprint(t, h)
	}
	want := run(total)
	for _, chunk := range []time.Duration{10 * time.Second, 70 * time.Second, 15 * time.Minute} {
		if got := run(chunk); got != want {
			t.Errorf("6 h in %v chunks hashes to %s, one call to %s", chunk, got, want)
		}
	}
}
