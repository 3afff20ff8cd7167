package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/flow"
	"repro/internal/httpapi"
	"repro/internal/lab"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"
)

// inproc is the control plane assembled inside the bench process from the
// public constructors, in the order flowerd's serveHTTP uses them, with
// the bench's span seams in between. It listens on loopback TCP, so the
// SDK drives it exactly as it drives the subprocess; it has no request
// logger, which is why proc.boundary_us includes the daemon's log line.
type inproc struct {
	plane  *sched.Scheduler
	reg    *registry.Registry
	engine *lab.Engine
	clog   *persist.ControlLog
	wal    *spanWAL
	srv    *httpapi.Server
	http   *http.Server
	served chan struct{}
	tap    *busTap
	probes [probeCount]probe
	jobs   []*sched.Ticket
}

// startInProcess builds the plane over dataDir. shards matches what the
// subprocess gets from its own GOMAXPROCS.
func startInProcess(dataDir string, rec *recorder, shards int) (*target, *inproc, error) {
	p := &inproc{served: make(chan struct{})}
	p.plane = sched.New(sched.Config{Shards: shards})
	p.reg = registry.New(registry.WithScheduler(p.plane))
	p.engine = lab.NewEngineOn(p.plane)

	clog, state, err := persist.OpenControlLog(dataDir, persist.ControlLogOptions{})
	if err != nil {
		p.engine.Close()
		p.reg.Close()
		p.plane.Close()
		return nil, nil, err
	}
	p.clog = clog
	persist.RecoverControlPlane(state, p.reg, p.engine, false)
	if err := clog.CompactWith(p.checkpoint); err != nil {
		p.close()
		return nil, nil, fmt.Errorf("boot checkpoint: %w", err)
	}
	p.wal = &spanWAL{inner: clog, rec: rec}
	p.reg.SetWAL(p.wal)
	p.engine.SetWAL(p.wal)

	// flowerd registers its default flow at boot; so does this plane.
	spec, err := flow.DefaultClickstream(3000)
	if err == nil {
		_, err = p.reg.Create(spec.Name, spec, sim.Options{Step: simStep, Seed: 1})
	}
	if err != nil {
		p.close()
		return nil, nil, err
	}

	compact, err := p.plane.Periodic("persist/wal-compact", sched.ClassBatch, 15*time.Second, func(int) error {
		if clog.ShouldCompact() {
			return clog.CompactWith(p.checkpoint)
		}
		return nil
	}, nil)
	if err != nil {
		p.close()
		return nil, nil, err
	}
	p.jobs = append(p.jobs, compact)
	for i := range p.probes {
		p.probes[i].id = i
		job, err := p.plane.Periodic(fmt.Sprintf("bench/probe-%d", i), sched.ClassFlow, wallTick, p.probes[i].tick, nil)
		if err != nil {
			p.close()
			return nil, nil, err
		}
		p.jobs = append(p.jobs, job)
	}
	p.tap = tapBus(p.reg.Events(), rec)

	p.srv = httpapi.NewServer(p.reg, httpapi.WithDefaultFlow(spec.Name), httpapi.WithLab(p.engine))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, nil, err
	}
	p.http = &http.Server{Handler: &spanHandler{h: p.srv, rec: rec}}
	go func() {
		defer close(p.served)
		_ = p.http.Serve(ln) // returns ErrServerClosed at teardown
	}()

	t := &target{base: "http://" + ln.Addr().String(), started: time.Now(), stop: p.close,
		wrap: func(rt http.RoundTripper) http.RoundTripper { return &spanTransport{rt: rt, rec: rec} }}
	return t, p, nil
}

func (p *inproc) checkpoint() *persist.ControlCheckpoint {
	return persist.CaptureControlState(p.reg, p.engine)
}

// fireLags merges the probes' readings.
func (p *inproc) fireLags() (us []float64, spans []span) {
	for i := range p.probes {
		u, s := p.probes[i].lags()
		us, spans = append(us, u...), append(spans, s...)
	}
	return us, spans
}

// checkpointMS times one compaction of the plane's current state.
func (p *inproc) checkpointMS() (float64, error) {
	start := time.Now()
	err := p.clog.CompactWith(p.checkpoint)
	return float64(time.Since(start)) / 1e6, err
}

// close tears the plane down, producers before the plane they produce
// onto, as flowerd's shutdown does.
func (p *inproc) close() {
	if p.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := p.http.Shutdown(ctx); err != nil {
			p.http.Close() // watch streams: cut them
		}
		cancel()
		<-p.served
	}
	if p.srv != nil {
		p.srv.Close()
	}
	for _, j := range p.jobs {
		j.Stop()
	}
	if p.tap != nil {
		p.tap.close()
	}
	p.engine.Close()
	p.reg.Close()
	p.plane.Close()
	if p.clog != nil {
		_ = p.clog.Close() // scratch directory; nothing durable is owed
	}
}
