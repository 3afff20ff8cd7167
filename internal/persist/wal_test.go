package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/injectfs"
)

func TestWALFramingRoundTrip(t *testing.T) {
	f := injectfs.New()
	w := NewWAL(f, WALOptions{})
	ops := []struct {
		op      string
		payload any
	}{
		{OpFlowCreate, FlowCreateOp{ID: "a"}},
		{OpFlowPace, FlowPaceOp{ID: "a", Pace: 60}},
		{OpFlowDelete, FlowDeleteOp{ID: "a"}},
	}
	for i, o := range ops {
		seq, err := w.Append(o.op, o.payload)
		if err != nil {
			t.Fatalf("Append %s: %v", o.op, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %s seq = %d, want %d", o.op, seq, i+1)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, err := ReadWAL(bytes.NewReader(f.Bytes()))
	if err != nil {
		t.Fatalf("ReadWAL: %v", err)
	}
	if len(recs) != len(ops) {
		t.Fatalf("read %d records, want %d", len(recs), len(ops))
	}
	for i, rec := range recs {
		if rec.Op != ops[i].op || rec.Seq != uint64(i+1) || rec.V != walVersion {
			t.Fatalf("record %d = {op %q seq %d v %d}", i, rec.Op, rec.Seq, rec.V)
		}
		if rec.T == 0 {
			t.Fatalf("record %d missing timestamp", i)
		}
	}
	var pace FlowPaceOp
	if err := recs[1].Decode(&pace); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if pace.ID != "a" || pace.Pace != 60 {
		t.Fatalf("decoded pace op = %+v", pace)
	}
}

func TestReadWALTornTail(t *testing.T) {
	f := injectfs.New()
	w := NewWAL(f, WALOptions{})
	for range 3 {
		if _, err := w.Append(OpFlowCreate, FlowCreateOp{ID: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	full := f.Bytes()
	// Cut the log mid-final-record at every possible torn length, from
	// "lost the final byte before the newline" back to "only the first
	// byte of the frame made it". Every cut must yield the two complete
	// records plus ErrTornTail. (Losing just the trailing newline is not
	// torn: the frame itself is intact and still parses.)
	lastStart := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	for cut := len(full) - 2; cut > lastStart; cut-- {
		recs, err := ReadWAL(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut %d: err = %v, want ErrTornTail", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut %d: read %d records, want 2", cut, len(recs))
		}
	}
	// The untouched log reads clean.
	if recs, err := ReadWAL(bytes.NewReader(full)); err != nil || len(recs) != 3 {
		t.Fatalf("clean log: %d records, err %v", len(recs), err)
	}
}

func TestReadWALMidFileCorruptionFailsHard(t *testing.T) {
	f := injectfs.New()
	w := NewWAL(f, WALOptions{})
	for range 3 {
		if _, err := w.Append(OpFlowCreate, FlowCreateOp{ID: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	full := f.Bytes()
	// Flip one byte inside the SECOND record's envelope: the CRC catches
	// it, and because records follow, it is corruption — not a torn tail.
	lines := bytes.SplitAfter(full, []byte{'\n'})
	mut := append([]byte(nil), full...)
	off := len(lines[0]) + len(lines[1])/2
	mut[off] ^= 0x01
	_, err := ReadWAL(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("mid-file corruption accepted")
	}
	if errors.Is(err, ErrTornTail) {
		t.Fatalf("mid-file corruption reported as torn tail: %v", err)
	}
}

func TestWALDegradesOnWriteFailure(t *testing.T) {
	f := injectfs.New()
	w := NewWAL(f, WALOptions{})
	if _, err := w.Append(OpFlowCreate, FlowCreateOp{ID: "ok"}); err != nil {
		t.Fatal(err)
	}
	f.FailWritesAfter(0, nil)
	if _, err := w.Append(OpFlowCreate, FlowCreateOp{ID: "lost"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on failing disk = %v, want ErrDegraded", err)
	}
	// Sticky: the fault stays even though the disk "recovered".
	f.FailWritesAfter(-1, nil)
	if _, err := w.Append(OpFlowCreate, FlowCreateOp{ID: "still-lost"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after degradation = %v, want sticky ErrDegraded", err)
	}
	if w.Err() == nil {
		t.Fatal("Err() nil on a degraded WAL")
	}
	if err := w.Close(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Close on degraded WAL = %v, want the sticky error", err)
	}
	// The surviving prefix replays clean: only acknowledged records exist.
	recs, err := ReadWAL(bytes.NewReader(f.Bytes()))
	if err != nil || len(recs) != 1 {
		t.Fatalf("surviving log: %d records, err %v", len(recs), err)
	}
}

func TestWALDegradesOnSyncFailure(t *testing.T) {
	f := injectfs.New()
	w := NewWAL(f, WALOptions{})
	f.FailSync(nil)
	if _, err := w.Append(OpFlowCreate, FlowCreateOp{ID: "x"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append with failing fsync = %v, want ErrDegraded", err)
	}
}

func TestWALTornWriteLeavesRecoverableLog(t *testing.T) {
	f := injectfs.New()
	w := NewWAL(f, WALOptions{})
	if _, err := w.Append(OpFlowCreate, FlowCreateOp{ID: "acked"}); err != nil {
		t.Fatal(err)
	}
	// The next frame tears 10 bytes in — a crash mid-append.
	f.FailWritesAfter(10, nil)
	if _, err := w.Append(OpFlowCreate, FlowCreateOp{ID: "torn"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("torn append = %v, want ErrDegraded", err)
	}
	recs, err := ReadWAL(bytes.NewReader(f.Bytes()))
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("replaying torn log: err = %v, want ErrTornTail", err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want the 1 acknowledged one", len(recs))
	}
}

func TestControlLogReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if state.Checkpoint != nil || len(state.Tail) != 0 || state.TornTail {
		t.Fatalf("fresh dir recovered state: %+v", state)
	}
	for _, id := range []string{"a", "b"} {
		if err := l.Append(OpFlowCreate, FlowCreateOp{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(state.Tail) != 2 {
		t.Fatalf("recovered tail %d records, want 2", len(state.Tail))
	}
	if err := l2.Append(OpFlowCreate, FlowCreateOp{ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := l2.Seq(); got != 3 {
		t.Fatalf("seq after reopen+append = %d, want 3 (monotonic across restarts)", got)
	}
}

func TestControlLogCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true, CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := l.Append(OpFlowCreate, FlowCreateOp{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact before threshold")
	}
	if err := l.Append(OpFlowCreate, FlowCreateOp{ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if !l.ShouldCompact() {
		t.Fatal("ShouldCompact at threshold = false")
	}
	if err := l.CompactWith(func() *ControlCheckpoint {
		return &ControlCheckpoint{Flows: []FlowCheckpoint{{ID: "a"}, {ID: "b"}, {ID: "c"}}}
	}); err != nil {
		t.Fatalf("CompactWith: %v", err)
	}
	if l.ShouldCompact() {
		t.Fatal("ShouldCompact true right after compaction")
	}
	// The WAL was rotated: everything under the watermark is gone.
	if recs, err := ReadWALFile(filepath.Join(dir, WALFileName)); err != nil || len(recs) != 0 {
		t.Fatalf("rotated WAL: %d records, err %v", len(recs), err)
	}
	// Post-compaction appends land in the rotated file with their
	// sequence numbers continuing past the watermark.
	if err := l.Append(OpFlowDelete, FlowDeleteOp{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if state.Checkpoint == nil || state.Checkpoint.LastSeq != 3 || len(state.Checkpoint.Flows) != 3 {
		t.Fatalf("recovered checkpoint: %+v", state.Checkpoint)
	}
	if len(state.Tail) != 1 || state.Tail[0].Op != OpFlowDelete || state.Tail[0].Seq != 4 {
		t.Fatalf("recovered tail: %+v", state.Tail)
	}
}

// Records appended while the capture runs outlive the compaction byte for
// byte, among them one longer than the reader's buffer.
func TestControlLogCompactionKeepsTailVerbatim(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, WALFileName)
	l, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for range 50 {
		if err := l.Append(OpFlowCreate, FlowCreateOp{ID: "before"}); err != nil {
			t.Fatal(err)
		}
	}
	long := strings.Repeat("x", 10000)
	var want []byte
	err = l.CompactWith(func() *ControlCheckpoint {
		for _, id := range []string{"during", long} {
			if err := l.Append(OpFlowCreate, FlowCreateOp{ID: id}); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte{'\n'})
		want = bytes.Join(lines[len(lines)-3:], nil) // the two records and the empty split after the final newline
		return &ControlCheckpoint{}
	})
	if err != nil {
		t.Fatalf("CompactWith: %v", err)
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rotated WAL (err %v):\n%.200s\nwant:\n%.200s", err, got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if state.Checkpoint == nil || state.Checkpoint.LastSeq != 50 || len(state.Tail) != 2 {
		t.Fatalf("recovered checkpoint %+v, tail of %d records", state.Checkpoint, len(state.Tail))
	}
	var op FlowCreateOp
	if err := state.Tail[1].Decode(&op); err != nil || op.ID != long || state.Tail[1].Seq != 52 {
		t.Fatalf("long record: seq %d, id of %d bytes, err %v", state.Tail[1].Seq, len(op.ID), err)
	}
}

func TestControlLogToleratesTornTailOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := l.Append(OpFlowCreate, FlowCreateOp{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash mid-append: append a torn half-frame by hand.
	walPath := filepath.Join(dir, WALFileName)
	fh, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(`w1 00000000 {"v":1,"seq":3,"op":"flow.cre`); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	l2, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer l2.Close()
	if !state.TornTail {
		t.Fatal("TornTail not flagged")
	}
	if len(state.Tail) != 2 {
		t.Fatalf("tail %d records, want the 2 complete ones", len(state.Tail))
	}
	// The next append must not collide with the torn fragment's claimed
	// sequence number space.
	if err := l2.Append(OpFlowCreate, FlowCreateOp{ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if got := l2.Seq(); got != 3 {
		t.Fatalf("seq after torn-tail recovery = %d, want 3", got)
	}
}
