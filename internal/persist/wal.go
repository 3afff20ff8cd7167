// Package persist is the control plane's durability layer: one on-disk
// log format with one writer and one reader, plus one checkpoint.
//
// The real Flower reads CloudWatch, whose data outlives any one process;
// this reproduction's state is in-memory, so whatever must survive a
// restart goes through the log in this file — CRC32C-framed,
// line-delimited records, WAL the only writer, ReadWAL the only reader
// and the only place that decides what a torn tail is. Its one use is
// flowerd -data-dir's control log: every mutation is appended and fsynced
// before it is acknowledged, compaction folds the log into a
// ControlCheckpoint, and recovery (recover.go) replays checkpoint + tail.
//
// Metric datapoints are not logged: a flow's history is a deterministic
// function of its definition, seed, step and how far it was advanced.
package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The log is append-only and line-delimited, one CRC-framed record per
// line — a torn or bit-rotted record must be detected, not replayed as
// garbage:
//
//	w1 <crc32c-hex8> <envelope-json>\n
//
// where the CRC covers exactly the envelope bytes. The envelope carries
// a format version, a monotonic sequence number (the compaction
// watermark), a wall-clock timestamp and the op payload. Everything is
// plain JSON: debuggable with grep and jq, forward-extensible by adding
// fields.

// Durability telemetry, shared by every WAL instance. The recovery-side
// counters are the ones the crashtest asserts on.
var (
	telWALRecords = telemetry.Default().Counter("flower_persist_wal_records_total",
		"Control-plane WAL records appended.")
	telWALBytes = telemetry.Default().Counter("flower_persist_wal_bytes_total",
		"Bytes appended to the control-plane WAL.")
	telWALSyncSeconds = telemetry.Default().Histogram("flower_persist_wal_sync_seconds",
		"Control-plane WAL append+sync latency.", nil)
	telWALAppendFailures = telemetry.Default().Counter("flower_persist_wal_append_failures_total",
		"Control-plane WAL appends that failed (the plane degrades to read-only).")
	telWALDegraded = telemetry.Default().Gauge("flower_persist_wal_degraded",
		"1 when a control-plane WAL has degraded to read-only after a write failure.")
	telWALCheckpoints = telemetry.Default().Counter("flower_persist_wal_checkpoints_total",
		"Control-plane checkpoints written (WAL compactions).")
	telWALReplayed = telemetry.Default().Counter("flower_persist_wal_replayed_records_total",
		"Control-plane WAL records replayed at recovery.")
	telWALTornTails = telemetry.Default().Counter("flower_persist_wal_torn_tails_total",
		"Control-plane WAL recoveries that found (and tolerated) a torn final record.")
)

// ErrTornTail reports that an append-only log ended mid-record — the
// expected shape of a crash during an append. It is advisory: replay
// applied every complete record, and the torn fragment carried a
// mutation that was never acknowledged. Callers treat it as a warning,
// not a failure.
var ErrTornTail = errors.New("torn tail: log ends mid-record")

// ErrDegraded reports that the control-plane WAL can no longer make
// mutations durable (a write or sync failed). The plane flips read-only:
// every subsequent mutation is refused with this error — mapped to HTTP
// 503 by the API layer — while reads and watch streams keep serving.
// The condition is sticky until the process restarts against healthy
// storage; silently dropping durability is the one behaviour this
// explicitly replaces.
var ErrDegraded = errors.New("control plane degraded: WAL writes failing, mutations disabled")

// walVersion tags WAL envelopes for forward compatibility.
const walVersion = 1

// walMagic prefixes every WAL line; a file that doesn't open with it is
// not a log this package wrote.
const walMagic = "w1"

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms that matter.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Op codes: one per control-plane mutation.
const (
	OpFlowCreate       = "flow.create"
	OpFlowPace         = "flow.pace" // pace 0 records a stop
	OpFlowTune         = "flow.tune"
	OpFlowDelete       = "flow.delete"
	OpExperimentSubmit = "experiment.submit"
	OpExperimentCancel = "experiment.cancel"
	OpExperimentFinish = "experiment.finish"
	OpExperimentDelete = "experiment.delete"
)

// WALRecord is the envelope every WAL line carries.
type WALRecord struct {
	// V is the format version (see walVersion).
	V int `json:"v"`
	// Seq is the record's monotonic sequence number; the checkpoint's
	// LastSeq watermark is expressed in this space.
	Seq uint64 `json:"seq"`
	// T is the append time in nanoseconds since the Unix epoch.
	T int64 `json:"t"`
	// Op is the mutation kind (Op* constants); Data its payload.
	Op   string          `json:"op"`
	Data json.RawMessage `json:"data"`
	// Line is the 1-based line ReadWAL parsed the record from, for error
	// messages; it is not part of the frame.
	Line int `json:"-"`
}

// Decode unmarshals the record's payload into out.
func (r WALRecord) Decode(out any) error {
	if err := json.Unmarshal(r.Data, out); err != nil {
		return fmt.Errorf("persist: wal %s payload: %w", r.Op, err)
	}
	return nil
}

// SyncWriter is what a WAL writes through: an append-only byte sink
// with explicit durability. *os.File satisfies it; so does
// injectfs.File, which is how the fault-injection tests script short
// writes, sync errors and torn tails.
type SyncWriter interface {
	io.Writer
	Sync() error
	Close() error
}

// WALOptions configure a WAL.
type WALOptions struct {
	// NoSync skips the per-append fsync. Appends are still unbuffered
	// single writes; only the durability barrier is elided (Close still
	// syncs). For tests and benchmarks — a production control plane
	// wants every mutation synced before it is acknowledged.
	NoSync bool
	// NextSeq seeds the sequence counter when continuing an existing
	// log: the last sequence number already used. The first record
	// appended gets NextSeq+1; zero starts a fresh log at 1.
	NextSeq uint64
}

// WAL appends CRC-framed records to a SyncWriter. Every
// Append is one unbuffered write followed by a sync (unless NoSync), so
// an acknowledged mutation is on stable storage. The first write or
// sync failure is sticky and wraps ErrDegraded: a WAL that lost a write
// refuses everything after it rather than leaving silent holes in the
// log. Safe for concurrent use.
type WAL struct {
	mu     sync.Mutex
	w      SyncWriter
	noSync bool
	seq    uint64 // last sequence number assigned
	err    error  // sticky, wraps ErrDegraded
}

// NewWAL returns a WAL appending to w.
func NewWAL(w SyncWriter, opts WALOptions) *WAL {
	return &WAL{w: w, noSync: opts.NoSync, seq: opts.NextSeq}
}

// OpenFileWAL opens (creating or appending to) a file-backed WAL.
func OpenFileWAL(path string, opts WALOptions) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	return NewWAL(f, opts), nil
}

// degrade records the WAL's first failure and flips it read-only.
// w.mu must be held.
func (w *WAL) degrade(cause error) error {
	w.err = fmt.Errorf("persist: %w: %w", ErrDegraded, cause)
	telWALAppendFailures.Inc()
	telWALDegraded.Set(1)
	return w.err
}

// Append frames op+payload as the next record and makes it durable.
// It returns the record's sequence number; on any failure the WAL
// degrades (sticky ErrDegraded) and the mutation must not be applied.
func (w *WAL) Append(op string, payload any) (uint64, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return 0, fmt.Errorf("persist: wal %s payload: %w", op, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	rec := WALRecord{
		V: walVersion, Seq: w.seq + 1,
		T:  telemetry.Now().UnixNano(),
		Op: op, Data: data,
	}
	frame, err := frameRecord(rec)
	if err != nil {
		return 0, err
	}

	start := telemetry.Now()
	// One Write call per frame: the kernel appends atomically enough
	// that a crash tears at most the final frame, which recovery
	// tolerates as ErrTornTail.
	if _, err := w.w.Write(frame); err != nil {
		return 0, w.degrade(fmt.Errorf("wal write: %w", err))
	}
	if !w.noSync {
		if err := w.w.Sync(); err != nil {
			return 0, w.degrade(fmt.Errorf("wal sync: %w", err))
		}
	}
	telWALSyncSeconds.Observe(time.Duration(telemetry.SinceNanos(start)))
	w.seq = rec.Seq
	telWALRecords.Inc()
	telWALBytes.Add(uint64(len(frame)))
	return rec.Seq, nil
}

// Seq returns the last sequence number assigned.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Err returns the sticky degradation error, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close syncs and closes the underlying writer. A WAL that degraded
// reports its sticky error (the close still happens), so shutdown paths
// can propagate lost durability to their exit code.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.w.Close()
		return w.err
	}
	if err := w.w.Sync(); err != nil {
		w.w.Close()
		return w.degrade(fmt.Errorf("wal sync: %w", err))
	}
	if err := w.w.Close(); err != nil {
		return fmt.Errorf("persist: wal close: %w", err)
	}
	return nil
}

// frameRecord renders one record as its on-disk line: magic, CRC over
// the envelope bytes, envelope, newline.
func frameRecord(rec WALRecord) ([]byte, error) {
	env, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("persist: wal envelope: %w", err)
	}
	frame := make([]byte, 0, len(env)+16)
	frame = fmt.Appendf(frame, "%s %08x ", walMagic, crc32.Checksum(env, crcTable))
	frame = append(frame, env...)
	frame = append(frame, '\n')
	return frame, nil
}

// parseWALLine checks one line's magic and CRC and unmarshals its
// envelope.
func parseWALLine(line []byte) (WALRecord, error) {
	var rec WALRecord
	rest, ok := bytes.CutPrefix(line, []byte(walMagic+" "))
	if !ok {
		return rec, fmt.Errorf("bad magic")
	}
	crcHex, env, ok := bytes.Cut(rest, []byte(" "))
	if !ok || len(crcHex) != 8 {
		return rec, fmt.Errorf("bad frame")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(crcHex), "%08x", &want); err != nil {
		return rec, fmt.Errorf("bad crc field: %w", err)
	}
	if got := crc32.Checksum(env, crcTable); got != want {
		return rec, fmt.Errorf("crc mismatch: %08x != %08x", got, want)
	}
	if err := json.Unmarshal(env, &rec); err != nil {
		return rec, fmt.Errorf("bad envelope: %w", err)
	}
	if rec.V != walVersion {
		return rec, fmt.Errorf("unsupported wal version %d", rec.V)
	}
	return rec, nil
}

// ReadWAL parses a log. A malformed *final* line — torn
// magic, failed CRC, truncated JSON, missing newline — is the expected
// residue of a crash mid-append: the complete records are returned
// together with a wrapped ErrTornTail. Malformed content *followed by
// more records* is mid-file corruption and fails hard, identifying the
// offending line.
func ReadWAL(r io.Reader) ([]WALRecord, error) {
	var recs []WALRecord
	err := scanWAL(r, func(rec WALRecord, _ []byte) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// ReadWALFile is ReadWAL over a file; a missing file is an empty log.
func ReadWALFile(path string) ([]WALRecord, error) {
	var recs []WALRecord
	err := scanWALFile(path, func(rec WALRecord, _ []byte) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// scanWAL is ReadWAL one record at a time: it calls fn with every
// well-formed record in log order, together with the line it was parsed
// from (without the newline; valid only during the call), and returns
// ReadWAL's verdict or fn's first error. It holds one line at a time, so
// a log of any length is read in constant memory.
func scanWAL(r io.Reader, fn func(rec WALRecord, line []byte) error) error {
	br := bufio.NewReader(r)
	var long []byte // a line longer than br's buffer, assembled across reads
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return fmt.Errorf("persist: wal read: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		if len(line) == 0 {
			if atEOF {
				return nil
			}
			continue
		}
		rec, perr := parseWALLine(line)
		if perr != nil {
			// The line is the last one when nothing, not even a blank
			// line, follows its newline.
			if !atEOF {
				if _, err := br.Peek(1); err != io.EOF {
					if err != nil {
						return fmt.Errorf("persist: wal read: %w", err)
					}
					return fmt.Errorf("persist: wal line %d: corrupt mid-file: %w", n, perr)
				}
			}
			return fmt.Errorf("persist: wal line %d: %v: %w", n, perr, ErrTornTail)
		}
		rec.Line = n
		if err := fn(rec, line); err != nil {
			return err
		}
		if atEOF {
			return nil
		}
	}
}

// scanWALFile is scanWAL over a file; a missing file is an empty log.
func scanWALFile(path string, fn func(rec WALRecord, line []byte) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: open wal: %w", err)
	}
	defer f.Close()
	return scanWAL(f, fn)
}

// --- checkpoint ---

// controlCheckpointVersion tags checkpoint documents.
const controlCheckpointVersion = 1

// ControlCheckpoint is the periodic compaction target: the complete
// control-plane state (flow definitions, pacer state, controller
// tunings, unfinished experiments) at a sequence watermark. Recovery
// rebuilds from the checkpoint and replays only WAL records with
// Seq > LastSeq.
type ControlCheckpoint struct {
	Version int   `json:"version"`
	TakenAt int64 `json:"taken_at"` // Unix nanoseconds
	// LastSeq is the WAL watermark: every mutation with Seq <= LastSeq
	// is already reflected in this document.
	LastSeq     uint64                 `json:"last_seq"`
	Flows       []FlowCheckpoint       `json:"flows,omitempty"`
	Experiments []ExperimentCheckpoint `json:"experiments,omitempty"`
}

// ControllerCheckpoint is one controller loop's tunable state.
type ControllerCheckpoint struct {
	Ref      float64 `json:"ref"`
	WindowNS int64   `json:"window_ns"`
	DeadBand float64 `json:"dead_band"`
}

// FlowCheckpoint is one flow's durable state: definition, simulation
// options, pacer state, and the live controller tunings.
type FlowCheckpoint struct {
	ID string `json:"id"`
	// Spec is the flow definition (already JSON-native).
	Spec json.RawMessage `json:"spec"`
	// StepNS and Seed are the sim.Options the flow was materialised
	// under (the only options the control plane sets).
	StepNS int64 `json:"step_ns,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// Pace/WallTickNS, when Pace > 0, re-arm the pacer at recovery.
	Pace       float64 `json:"pace,omitempty"`
	WallTickNS int64   `json:"wall_tick_ns,omitempty"`
	// Controllers maps layer kind to tuned controller state.
	Controllers map[string]ControllerCheckpoint `json:"controllers,omitempty"`
}

// ExperimentCheckpoint is one *unfinished* experiment: enough to mark
// it interrupted (or resubmit it) after a crash. Finished experiments
// are not checkpointed — their results lived in memory and are gone;
// see API.md's recovery semantics.
type ExperimentCheckpoint struct {
	ID   string          `json:"id"`
	Spec json.RawMessage `json:"spec"`
}

// syncDir fsyncs a directory, making a rename inside it durable. A
// variable only so the compaction test can record when it runs.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// atomicReplace replaces path with whatever write produces: temp file in
// the same directory, synced, renamed over the destination, then the
// directory synced — so a crash leaves the old file or the new one, never
// a torn one, and once atomicReplace returns power loss cannot roll the
// rename back.
func atomicReplace(path string, write func(io.Writer) error) error {
	dir, name := filepath.Dir(path), filepath.Base(path)
	fail := func(step string, err error) error {
		return fmt.Errorf("persist: replace %s: %s: %w", name, step, err)
	}
	tmp, err := os.CreateTemp(dir, "."+name+"-*")
	if err != nil {
		return fail("temp", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return fail("write", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		return fail("close", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail("rename", err)
	}
	if err := syncDir(dir); err != nil {
		return fail("sync dir", err)
	}
	return nil
}

// WriteControlCheckpoint writes the checkpoint through atomicReplace, so
// a crash never leaves a torn checkpoint.
func WriteControlCheckpoint(path string, ckpt *ControlCheckpoint) error {
	ckpt.Version = controlCheckpointVersion
	return atomicReplace(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(ckpt)
	})
}

// ReadControlCheckpoint reads a checkpoint; a missing file returns
// (nil, nil) — a data dir with no checkpoint yet is a fresh plane.
func ReadControlCheckpoint(path string) (*ControlCheckpoint, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: open checkpoint: %w", err)
	}
	defer f.Close()
	var ckpt ControlCheckpoint
	if err := json.NewDecoder(f).Decode(&ckpt); err != nil {
		return nil, fmt.Errorf("persist: checkpoint decode: %w", err)
	}
	if ckpt.Version != controlCheckpointVersion {
		return nil, fmt.Errorf("persist: unsupported checkpoint version %d", ckpt.Version)
	}
	return &ckpt, nil
}

// --- control log: WAL + checkpoint under one directory ---

// File names inside a control-plane data directory.
const (
	WALFileName        = "control.wal"
	CheckpointFileName = "control.ckpt"
)

// DefaultCompactEvery is how many WAL records accumulate before
// ShouldCompact asks for a checkpoint.
const DefaultCompactEvery = 1024

// ControlLog is the durable control plane's storage engine: the WAL and
// its checkpoint under one data directory, with compaction that rotates
// acknowledged records into the checkpoint. It implements both
// registry.WAL and lab.WAL, so one handle hooks the whole plane.
type ControlLog struct {
	dir          string
	compactEvery int

	mu        sync.Mutex
	wal       *WAL
	noSync    bool
	sinceCkpt int // records appended since the last checkpoint
}

// RecoveredState is what OpenControlLog found on disk: the latest
// checkpoint (nil on a fresh directory), the WAL records newer than its
// watermark, and whether the WAL ended in a torn record.
type RecoveredState struct {
	Checkpoint *ControlCheckpoint
	Tail       []WALRecord
	TornTail   bool
}

// ControlLogOptions configure OpenControlLog.
type ControlLogOptions struct {
	// NoSync elides the per-append fsync (tests).
	NoSync bool
	// CompactEvery overrides DefaultCompactEvery; <= 0 keeps the default.
	CompactEvery int
}

// OpenControlLog opens (creating if needed) the control-plane log under
// dir and returns it together with the state recovered from any prior
// incarnation. A torn WAL tail is tolerated (counted in telemetry and
// flagged in the state); mid-file corruption fails the open — operator
// intervention beats silently dropping acknowledged mutations.
func OpenControlLog(dir string, opts ControlLogOptions) (*ControlLog, *RecoveredState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: data dir: %w", err)
	}
	ckpt, err := ReadControlCheckpoint(filepath.Join(dir, CheckpointFileName))
	if err != nil {
		return nil, nil, err
	}
	recs, err := ReadWALFile(filepath.Join(dir, WALFileName))
	state := &RecoveredState{Checkpoint: ckpt}
	switch {
	case errors.Is(err, ErrTornTail):
		state.TornTail = true
		telWALTornTails.Inc()
	case err != nil:
		return nil, nil, err
	}
	var lastSeq uint64
	if ckpt != nil {
		lastSeq = ckpt.LastSeq
	}
	nextSeq := lastSeq
	for _, rec := range recs {
		if rec.Seq > lastSeq {
			state.Tail = append(state.Tail, rec)
		}
		if rec.Seq > nextSeq {
			nextSeq = rec.Seq
		}
	}
	wal, err := OpenFileWAL(filepath.Join(dir, WALFileName), WALOptions{NoSync: opts.NoSync, NextSeq: nextSeq})
	if err != nil {
		return nil, nil, err
	}
	l := &ControlLog{dir: dir, compactEvery: opts.CompactEvery, wal: wal, noSync: opts.NoSync}
	if l.compactEvery <= 0 {
		l.compactEvery = DefaultCompactEvery
	}
	l.sinceCkpt = len(state.Tail)
	return l, state, nil
}

// Append frames and durably appends one mutation record.
func (l *ControlLog) Append(op string, payload any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.wal.Append(op, payload); err != nil {
		return err
	}
	l.sinceCkpt++
	return nil
}

// Seq returns the last WAL sequence number assigned.
func (l *ControlLog) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wal.Seq()
}

// ShouldCompact reports whether enough records accumulated since the
// last checkpoint to be worth compacting.
func (l *ControlLog) ShouldCompact() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt >= l.compactEvery && l.wal.Err() == nil
}

// CompactWith compacts through a caller-supplied state capture: the
// current sequence number is observed *first*, then capture() runs (it
// may take registry/engine locks — the log's lock is NOT held), then
// the checkpoint is written at that watermark and the WAL rotated.
// Records appended concurrently with the capture keep Seq > watermark
// and survive the rotation; replay is idempotent, so a mutation both
// captured and retained is harmless.
func (l *ControlLog) CompactWith(capture func() *ControlCheckpoint) error {
	seq := l.Seq()
	ckpt := capture()
	ckpt.LastSeq = seq
	ckpt.TakenAt = telemetry.Now().UnixNano()
	return l.compact(ckpt)
}

// compact writes the checkpoint, then rewrites the WAL keeping only
// records past its watermark. Checkpoint-then-rotate is the crash-safe
// order: dying in between leaves pre-watermark records in the WAL,
// which recovery filters out by sequence number. Each step's rename is
// made durable (atomicReplace syncs the directory) before the next
// begins, so power loss cannot keep the rotation and lose the checkpoint
// that justified dropping those records.
func (l *ControlLog) compact(ckpt *ControlCheckpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.wal.Err(); err != nil {
		return err
	}
	// Only the records past the watermark survive: the few appended while
	// the capture ran. The log is streamed and just those lines are held,
	// so a compaction's memory does not grow with the number of records
	// since the last one.
	walPath := filepath.Join(l.dir, WALFileName)
	var tail bytes.Buffer
	kept := 0
	err := scanWALFile(walPath, func(rec WALRecord, line []byte) error {
		if rec.Seq > ckpt.LastSeq {
			tail.Write(line)
			tail.WriteByte('\n')
			kept++
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrTornTail) {
		return err
	}
	if err := WriteControlCheckpoint(filepath.Join(l.dir, CheckpointFileName), ckpt); err != nil {
		return err
	}
	// Rewrite the tail atomically, then swing the append handle to the
	// new file. Retained records are copied byte for byte — original
	// sequence numbers and timestamps — so the checkpoint watermark
	// still partitions them correctly on the next recovery.
	err = atomicReplace(walPath, func(w io.Writer) error {
		_, err := w.Write(tail.Bytes())
		return err
	})
	if err != nil {
		return err
	}
	// The old handle points at the unlinked inode; reopen on the
	// rotated file, preserving the sequence counter.
	old := l.wal
	nwal, err := OpenFileWAL(walPath, WALOptions{NoSync: l.noSync, NextSeq: old.Seq()})
	if err != nil {
		return err
	}
	old.Close()
	l.wal = nwal
	l.sinceCkpt = kept
	telWALCheckpoints.Inc()
	return nil
}

// Close syncs and closes the WAL, reporting any sticky degradation so
// shutdown can propagate lost durability to the exit code.
func (l *ControlLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wal.Close()
}
