// Package injectfs is the fault-injection half of the durability story:
// an in-memory file that fails on command. Tests point a WAL (control
// log or metric log) at one of these and script the storage failures a
// real deployment meets — short writes when a disk fills, fsync errors
// when a device drops, torn tails when power dies mid-append — without
// touching the filesystem or depending on OS-specific error behaviour.
//
// The zero-value knobs mean "healthy"; each knob arms one failure mode:
//
//   - FailWritesAfter(n): the first n bytes write normally, then every
//     Write fails — and the failing Write tears, persisting a prefix of
//     its buffer, exactly like a crash mid-append.
//   - FailSync(err): Sync returns err (fsync reporting a lost write).
//   - FailClose(err): Close returns err after recording the data.
//
// Bytes() returns what "reached the disk" for replay assertions.
package injectfs

import (
	"errors"
	"sync"
)

// ErrInjected is the default error injected failures wrap, so tests can
// assert errors.Is(err, injectfs.ErrInjected) without matching strings.
var ErrInjected = errors.New("injectfs: injected fault")

// File is an in-memory io.Writer with Sync and Close, programmable to
// fail. It satisfies the same contract *os.File does for append-only
// logs, so persist's writers accept either. Safe for concurrent use.
type File struct {
	mu sync.Mutex

	buf []byte

	// writeBudget is how many more bytes Write accepts before failing;
	// negative means unlimited.
	writeBudget int
	writeErr    error
	syncErr     error
	closeErr    error
	closed      bool
}

// New returns a healthy in-memory file: writes append, Sync and Close
// succeed.
func New() *File {
	return &File{writeBudget: -1}
}

// FailWritesAfter arms a disk-full/torn-write fault: the next n bytes
// are persisted, then every Write fails with err (ErrInjected when nil).
// A Write straddling the boundary persists its first bytes and fails —
// the torn tail a crash mid-append leaves behind.
func (f *File) FailWritesAfter(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	f.writeBudget, f.writeErr = n, err
}

// FailSync makes every subsequent Sync return err (ErrInjected when nil).
func (f *File) FailSync(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	f.syncErr = err
}

// FailClose makes Close return err (ErrInjected when nil) after
// recording the data written so far.
func (f *File) FailClose(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	f.closeErr = err
}

// Write appends p, honouring the armed write budget: within budget the
// whole buffer lands, over it a prefix lands (the torn write) and the
// injected error returns with the short count, per io.Writer's contract.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, errors.New("injectfs: write on closed file")
	}
	if f.writeBudget < 0 {
		f.buf = append(f.buf, p...)
		return len(p), nil
	}
	if len(p) <= f.writeBudget {
		f.buf = append(f.buf, p...)
		f.writeBudget -= len(p)
		return len(p), nil
	}
	n := f.writeBudget
	f.buf = append(f.buf, p[:n]...)
	f.writeBudget = 0
	return n, f.writeErr
}

// Sync reports the armed sync fault, if any.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncErr
}

// Close marks the file closed; further writes fail. The recorded bytes
// stay readable through Bytes.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return f.closeErr
}

// Bytes returns a copy of everything that "reached the disk".
func (f *File) Bytes() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.buf...)
}
