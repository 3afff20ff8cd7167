// Package eventbus is the server-push backbone of the v1 read plane: a
// bounded, replayable pub/sub bus that turns the control plane's state
// changes (flow advances, controller decisions, experiment trials) into an
// event stream the HTTP watch endpoints can serve.
//
// The design is shaped by one invariant: publishing must never block the
// simulation tick path. Every subscriber owns a bounded buffer; a publish
// that finds a buffer full increments the subscriber's drop counter and
// moves on, and the transport surfaces the gap to the consumer as an
// explicit dropped-event marker instead of silently losing data or
// back-pressuring the publisher. A fixed-size ring of recent events backs
// `Last-Event-ID`-style resume: a reconnecting subscriber replays what the
// ring still holds and learns exactly how many events expired beyond it.
package eventbus

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Process-wide bus telemetry: every Bus instance aggregates into these, so
// /v1/telemetry shows total event traffic and total loss across the plane
// (the registry's bus and the lab's bus both count here).
var (
	telPublishes = telemetry.Default().Counter("flower_eventbus_publishes_total",
		"Events published across all buses.")
	telDrops = telemetry.Default().Counter("flower_eventbus_dropped_total",
		"Events not delivered to a subscriber (buffer overflow or resume gap), across all buses.")
	telSubscribers = telemetry.Default().Gauge("flower_eventbus_subscribers",
		"Live subscriptions across all buses.")
	telRingEntries = telemetry.Default().Gauge("flower_eventbus_ring_entries",
		"Occupied replay-ring slots across all buses.")
)

// Live is the Subscribe cursor meaning "no replay: start with the next
// event published after the subscription".
const Live = ^uint64(0)

// DefaultRing is the number of recent events retained for resume when New
// is given no explicit size.
const DefaultRing = 1024

// DefaultBuffer is the per-subscriber channel capacity used when Subscribe
// is given a non-positive one.
const DefaultBuffer = 64

// Event is one bus record. Seq is a per-bus, strictly increasing sequence
// number (the resume cursor); Topic scopes the event to one flow or
// experiment; Data is an immutable, JSON-marshalable payload snapshot.
type Event struct {
	Seq   uint64    `json:"id"`
	Type  string    `json:"type"`
	Topic string    `json:"topic,omitempty"`
	At    time.Time `json:"at"`
	Data  any       `json:"data,omitempty"`
}

// Bus is a concurrency-safe pub/sub bus with bounded fan-out and a replay
// ring. The zero value is not usable; construct with New.
type Bus struct {
	mu   sync.Mutex
	seq  uint64
	ring []Event // fixed-capacity circular buffer of the latest events
	next int     // ring index the next event is written at
	n    int     // number of live ring entries (<= cap(ring))
	subs map[*Subscription]struct{}

	// pubs and drops are this bus's lifetime aggregates. Unlike
	// Subscription.Dropped they never reset, so total loss is observable:
	// the per-subscriber counter exists to emit in-order gap markers, these
	// exist for the operator. Atomic so accessors never contend with the
	// publish path.
	pubs  atomic.Uint64
	drops atomic.Uint64
}

// New returns a bus retaining the last ringSize events for resume
// (non-positive selects DefaultRing).
func New(ringSize int) *Bus {
	if ringSize <= 0 {
		ringSize = DefaultRing
	}
	return &Bus{
		ring: make([]Event, ringSize),
		subs: make(map[*Subscription]struct{}),
	}
}

// Publish records the event and fans it out to every matching subscriber
// without ever blocking: a subscriber whose buffer is full has the event
// counted against it instead. It returns the event's sequence number.
func (b *Bus) Publish(typ, topic string, data any) uint64 {
	b.mu.Lock()
	b.seq++
	//flowervet:allow wallclock(event timestamps are observability metadata for operators, not simulation state)
	ev := Event{Seq: b.seq, Type: typ, Topic: topic, At: time.Now(), Data: data}
	b.ring[b.next] = ev
	b.next = (b.next + 1) % cap(b.ring)
	if b.n < cap(b.ring) {
		b.n++
		telRingEntries.Inc()
	}
	for sub := range b.subs {
		sub.offerLocked(ev)
	}
	seq := b.seq
	b.mu.Unlock()
	b.pubs.Add(1)
	telPublishes.Inc()
	return seq
}

// Published returns the number of events ever published on this bus.
func (b *Bus) Published() uint64 { return b.pubs.Load() }

// TotalDropped returns the lifetime count of events not delivered to some
// subscriber of this bus — buffer overflows plus resume gaps. It never
// resets (contrast Subscription.Dropped, which is per-subscriber and
// consumed by the transport's gap markers).
func (b *Bus) TotalDropped() uint64 { return b.drops.Load() }

// Seq returns the sequence number of the most recently published event
// (0 before the first publish) — the "now" cursor for a live subscriber.
func (b *Bus) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Subscribe registers a consumer. Events with sequence number > after that
// the ring still retains are replayed into the subscription's buffer
// first; events beyond the ring's reach (already expired) are counted as
// dropped, so the consumer sees an explicit gap marker rather than a
// silent hole. Expired events cannot be tested against the filter
// anymore, so for a filtered subscriber the resume-gap portion of the
// dropped count is an upper bound over the whole bus: treat a gap as
// "state MAY have been missed — resync", not as an exact per-filter
// count. after == Live skips replay and starts with the next publish.
// match, when non-nil, filters events before delivery; buf <= 0 selects
// DefaultBuffer.
func (b *Bus) Subscribe(buf int, after uint64, match func(Event) bool) *Subscription {
	if buf <= 0 {
		buf = DefaultBuffer
	}
	sub := &Subscription{bus: b, match: match}
	b.mu.Lock()
	defer b.mu.Unlock()
	start := b.next - b.n
	if start < 0 {
		start += cap(b.ring)
	}
	if after != Live {
		if after > b.seq {
			// A cursor from another bus epoch (the server restarted and
			// sequence numbers reset). The gap size is unknowable; what
			// matters is that the consumer learns there IS one instead of
			// silently skipping the new epoch's events forever.
			sub.dropped.Add(1)
			b.drops.Add(1)
			telDrops.Inc()
			after = 0
		}
		oldest := b.seq - uint64(b.n) // seq of the newest expired event
		if after < oldest {
			sub.dropped.Add(oldest - after)
			b.drops.Add(oldest - after)
			telDrops.Add(oldest - after)
		}
		// Size the buffer to hold the full matching replay on top of the
		// requested live headroom: everything the ring still retains MUST
		// be delivered, not converted into phantom drops by a small buf.
		replay := 0
		for i := 0; i < b.n; i++ {
			ev := b.ring[(start+i)%cap(b.ring)]
			if ev.Seq > after && (match == nil || match(ev)) {
				replay++
			}
		}
		sub.ch = make(chan Event, buf+replay)
		for i := 0; i < b.n; i++ {
			ev := b.ring[(start+i)%cap(b.ring)]
			if ev.Seq > after {
				sub.offerLocked(ev)
			}
		}
	} else {
		sub.ch = make(chan Event, buf)
	}
	b.subs[sub] = struct{}{}
	telSubscribers.Inc()
	return sub
}

// Subscription is one consumer's bounded view of the bus.
type Subscription struct {
	bus   *Bus
	ch    chan Event
	match func(Event) bool // set once at Subscribe; nil matches everything
	// dropped counts events not delivered to this subscriber — buffer
	// overflows plus resume gaps beyond the ring. It is added to under
	// bus.mu and taken by Dropped without it.
	dropped atomic.Uint64
	closed  bool // guarded by bus.mu
}

// offerLocked delivers ev if it matches and the buffer has room; the bus
// lock must be held.
func (s *Subscription) offerLocked(ev Event) {
	if s.match != nil && !s.match(ev) {
		return
	}
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
		s.bus.drops.Add(1)
		telDrops.Inc()
	}
}

// Events returns the delivery channel. It is closed by Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped returns and resets the count of events this subscriber missed
// (buffer overflow or resume gap) since the last call. Transports call it
// before forwarding each event so consumers learn about gaps in order; it
// takes no lock, so that per-event call never waits on Publish.
func (s *Subscription) Dropped() uint64 { return s.dropped.Swap(0) }

// Close unregisters the subscription and closes its channel. Safe to call
// once concurrent publishes are in flight; double-Close is a no-op.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.bus.subs, s)
	close(s.ch)
	telSubscribers.Dec()
}
