package persist

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadWAL holds the package's one decoder — every byte the daemon
// reads back goes through ReadWAL — to its contract on arbitrary input.
// The seed corpus (testdata/fuzz/FuzzReadWAL) covers valid control ops and
// the records of the retired metric log, a truncated frame, flipped CRC
// nibbles mid-file and on the last line, bad magic, the retired JSONL
// journal, blank lines, a missing final newline and out-of-order
// datapoints. ReadWAL does not interpret ops, so every entry still
// exercises it.
func FuzzReadWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadWAL(bytes.NewReader(data))

		// Compaction copies the lines scanWAL hands over: each must be
		// its input line exactly, and parse back to the same record.
		lines := bytes.Split(data, []byte{'\n'})
		_ = scanWAL(bytes.NewReader(data), func(rec WALRecord, line []byte) error {
			if !bytes.Equal(line, lines[rec.Line-1]) {
				t.Fatalf("line %d: scanWAL handed over %q, input has %q", rec.Line, line, lines[rec.Line-1])
			}
			if back, perr := parseWALLine(line); perr != nil || back.Seq != rec.Seq || back.Op != rec.Op {
				t.Fatalf("line %d: handed-over line reads back as %+v, %v", rec.Line, back, perr)
			}
			return nil
		})

		// Every returned record re-frames to a line that parses back to
		// itself: Append frames through frameRecord, so a record ReadWAL
		// accepts must survive being appended again.
		for _, rec := range recs {
			frame, ferr := frameRecord(rec)
			if ferr != nil {
				t.Fatalf("line %d: accepted record does not re-frame: %v", rec.Line, ferr)
			}
			back, perr := parseWALLine(bytes.TrimSuffix(frame, []byte{'\n'}))
			if perr != nil {
				t.Fatalf("line %d: re-framed record rejected: %v", rec.Line, perr)
			}
			if back.Seq != rec.Seq || back.T != rec.T || back.Op != rec.Op {
				t.Fatalf("line %d: re-framed envelope %+v != %+v", rec.Line, back, rec)
			}
			if again, _ := frameRecord(back); !bytes.Equal(again, frame) {
				t.Fatalf("line %d: re-framing is not stable:\n%s%s", rec.Line, frame, again)
			}
		}

		// The verdict: clean when every non-blank line parses, ErrTornTail
		// only when the first bad line is the last line, a hard error
		// otherwise — with exactly the records before the bad line.
		if n := len(lines); len(lines[n-1]) == 0 {
			lines = lines[:n-1]
		}
		good, firstBad := 0, -1
		for i, line := range lines {
			if len(line) == 0 {
				continue
			}
			if _, perr := parseWALLine(line); perr != nil {
				firstBad = i
				break
			}
			good++
		}
		switch {
		case firstBad < 0:
			if err != nil {
				t.Fatalf("clean log: err = %v", err)
			}
		case firstBad == len(lines)-1:
			if !errors.Is(err, ErrTornTail) {
				t.Fatalf("bad last line %d: err = %v, want ErrTornTail", firstBad+1, err)
			}
		default:
			if err == nil || errors.Is(err, ErrTornTail) {
				t.Fatalf("bad line %d of %d: err = %v, want a hard error", firstBad+1, len(lines), err)
			}
		}
		if len(recs) != good {
			t.Fatalf("returned %d records, want the %d before the first bad line", len(recs), good)
		}
	})
}
