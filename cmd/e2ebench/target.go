package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/client"
)

// repoRoot walks up from the working directory to the checkout that holds
// the measured module (go.mod declaring "module repro").
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module repro above the working directory")
		}
		dir = parent
	}
}

// buildDir is where the benchmark keeps everything it writes: the flowerd
// binary, per-run data directories, trace.json. It is inside the checkout
// and named in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildFlowerd compiles the daemon under test from the checkout's source.
func buildFlowerd(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "flowerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/flowerd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/flowerd: %v\n%s", err, out)
	}
	return bin, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// target is a control plane under load: a flowerd subprocess, or the
// plane assembled inside the bench for the traced run.
type target struct {
	base    string
	pid     int // 0: in-process
	started time.Time
	wrap    func(http.RoundTripper) http.RoundTripper // traced run: span transport

	cmd  *exec.Cmd
	logs *os.File
	stop func() // in-process teardown
}

// startDaemon execs flowerd on a free port over dataDir with manual time
// (-pace 0), stderr and stdout to a file (a pipe would block the daemon
// when nobody drains it), and waits until it answers.
func startDaemon(bin, dataDir string) (*target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logs, err := os.OpenFile(dataDir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-http", addr, "-data-dir", dataDir, "-pace", "0")
	cmd.Stdout, cmd.Stderr = logs, logs
	t := &target{base: "http://" + addr, cmd: cmd, logs: logs, started: time.Now()}
	if err := cmd.Start(); err != nil {
		logs.Close()
		return nil, fmt.Errorf("start flowerd: %w", err)
	}
	t.pid = cmd.Process.Pid
	if err := t.waitReady(15 * time.Second); err != nil {
		t.kill()
		return nil, err
	}
	return t, nil
}

func (t *target) waitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(t.base + "/v1/flows")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("flowerd on %s never became ready (log: %s)", t.base, t.logs.Name())
}

// kill SIGKILLs the daemon — no shutdown path runs — and reaps it; for
// the in-process plane it tears the plane down.
func (t *target) kill() {
	if t.cmd != nil {
		_ = t.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
		_ = t.cmd.Wait()                          // the exit status of a killed process is not news
		t.logs.Close()
		t.cmd = nil
	}
	if t.stop != nil {
		t.stop()
		t.stop = nil
	}
}

// newConn returns one request connection: a transport limited to a single
// TCP connection, so the number of conns is the number of connections.
func (t *target) newConn() *conn {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	if t.wrap != nil {
		rt = t.wrap(rt)
	}
	hc := &http.Client{Transport: rt}
	return &conn{c: client.New(t.base, client.WithHTTPClient(hc), client.WithTimeout(30*time.Second)), hc: hc, base: t.base}
}

func (cn *conn) close() { cn.hc.CloseIdleConnections() }

// --- /proc readings of the daemon ---

// clockTick is USER_HZ, the unit of the times in /proc/<pid>/stat: 100 on
// every Linux ABI Go runs on (sysconf is not in the standard library).
const clockTick = 100.0

// cpuSeconds returns utime+stime of the process, from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable times in /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTick, nil
}

// statusKB reads one "Key:   123 kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// runOps executes ops over the connections, op i on connection i mod n, in
// order per connection, and returns the first error.
func runOps(ctx context.Context, conns []*conn, ops []op) error {
	errs := make(chan error, len(conns))
	for w, cn := range conns {
		go func(w int, cn *conn) {
			for i := w; i < len(ops); i += len(conns) {
				if err := ops[i].run(ctx, cn); err != nil {
					errs <- fmt.Errorf("setup %s %s: %w", ops[i].class, ops[i].flow, err)
					return
				}
			}
			errs <- nil
		}(w, cn)
	}
	var first error
	for range conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setUp runs the plan's setup stages over conns.
func setUp(ctx context.Context, p *plan, conns []*conn) error {
	for _, stage := range p.setup {
		if err := runOps(ctx, conns, stage); err != nil {
			return err
		}
	}
	return nil
}
