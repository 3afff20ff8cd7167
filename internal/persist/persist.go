// Package persist is the plane's durability layer: one on-disk log
// format with one writer and one reader, plus one checkpoint.
//
// The real Flower reads CloudWatch, whose data outlives any one process;
// this reproduction's state is in-memory, so whatever must survive a run
// goes through the log in wal.go — CRC32C-framed, line-delimited records,
// WAL the only writer, ReadWAL the only reader and the only place that
// decides what a torn tail is. Two things ride it:
//
//   - The control log (wal.go, recover.go): flowerd -data-dir's WAL plus
//     its ControlCheckpoint. Every mutation is appended and fsynced before
//     it is acknowledged; compaction folds the log into the checkpoint;
//     recovery replays checkpoint + tail.
//   - The metric log (this file): flowerd -journal's metric.put records,
//     written through the store's on-put hook and replayed into a fresh
//     store (flowctl dashboard -replay) — learning Eq. 1 dependencies from
//     last week's run, re-rendering a dashboard after the fact.
//
// WALOptions.NoSync in production use is for metric logs only: a datapoint
// of a seeded simulation is reproducible, so its log is written through to
// the OS per record and fsynced once, at Close. The control WAL never sets
// it — an acknowledged mutation must be on stable storage.
package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/metricstore"
)

// MetricPutOp is the payload of OpMetricPut: metric NS/Name{Dims} observed
// Val at T, nanoseconds since the Unix epoch.
type MetricPutOp struct {
	NS   string            `json:"ns"`
	Name string            `json:"name"`
	Dims map[string]string `json:"dims,omitempty"`
	T    int64             `json:"t"`
	Val  float64           `json:"val"`
}

// LogMetrics wires the WAL to a store: every Put is appended as a
// metric.put record from now on. Detach by calling store.SetOnPut(nil).
// A datapoint the log cannot take — a failed write, or a value JSON cannot
// carry (NaN, ±Inf) — makes the WAL's error sticky, surfaced by Err/Close
// rather than interrupting the simulation: a log with a silent hole would
// replay as if it were the run.
func (w *WAL) LogMetrics(store *metricstore.Store) {
	store.SetOnPut(func(id metricstore.MetricID, t time.Time, v float64) {
		_, err := w.Append(OpMetricPut, MetricPutOp{
			NS: id.Namespace, Name: id.Name, Dims: id.Dimensions, T: t.UnixNano(), Val: v,
		})
		if err != nil {
			w.mu.Lock()
			if w.err == nil {
				w.degrade(err)
			}
			w.mu.Unlock()
		}
	})
}

// Replay reads a metric log and appends every metric.put record to the
// store in file order, returning the number of datapoints applied. Seq is
// ignored: a metric log has no checkpoint watermark. ReadWAL's verdicts
// pass through: a torn final record still applies every complete one and
// returns ErrTornTail (counted in telemetry) for the caller to log, and
// mid-file corruption fails naming the line. So does any op other than
// metric.put — a control WAL is not a metric log — and a datapoint older
// than its series' newest.
func Replay(r io.Reader, store *metricstore.Store) (int, error) {
	recs, readErr := ReadWAL(r)
	if readErr != nil && !errors.Is(readErr, ErrTornTail) {
		return 0, readErr
	}
	apply := func(rec WALRecord) error {
		if rec.Op != OpMetricPut {
			return fmt.Errorf("unexpected op %q", rec.Op)
		}
		var op MetricPutOp
		if err := rec.Decode(&op); err != nil {
			return err
		}
		h, err := store.Handle(op.NS, op.Name, op.Dims)
		if err != nil {
			return err
		}
		return h.Append(time.Unix(0, op.T), op.Val)
	}
	for i, rec := range recs {
		if err := apply(rec); err != nil {
			return i, fmt.Errorf("persist: metric log line %d: %w", rec.Line, err)
		}
	}
	if readErr != nil {
		telWALTornTails.Inc()
	}
	return len(recs), readErr
}

// ReplayFile is Replay over a file.
func ReplayFile(path string, store *metricstore.Store) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("persist: open metric log: %w", err)
	}
	defer f.Close()
	return Replay(f, store)
}
