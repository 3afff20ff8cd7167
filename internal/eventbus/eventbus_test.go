package eventbus

import (
	"fmt"
	"sync"
	"testing"
)

func drain(s *Subscription) []Event {
	var out []Event
	for {
		select {
		case ev := <-s.Events():
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestPublishFansOutToLiveSubscribers(t *testing.T) {
	b := New(8)
	s := b.Subscribe(4, Live, nil)
	defer s.Close()

	b.Publish("flow.advanced", "web", map[string]int{"ticks": 3})
	b.Publish("flow.advanced", "api", nil)

	got := drain(s)
	if len(got) != 2 {
		t.Fatalf("got %d events, want 2", len(got))
	}
	if got[0].Type != "flow.advanced" || got[0].Topic != "web" || got[0].Seq != 1 {
		t.Fatalf("first event = %+v", got[0])
	}
	if got[1].Seq != 2 {
		t.Fatalf("second seq = %d, want 2", got[1].Seq)
	}
}

func TestSubscribeLiveSkipsHistory(t *testing.T) {
	b := New(8)
	b.Publish("a", "t", nil)
	b.Publish("b", "t", nil)
	s := b.Subscribe(4, Live, nil)
	defer s.Close()
	if got := drain(s); len(got) != 0 {
		t.Fatalf("live subscriber replayed %d events, want 0", len(got))
	}
	if n := s.Dropped(); n != 0 {
		t.Fatalf("live subscriber reports %d dropped, want 0", n)
	}
}

func TestResumeReplaysRetainedEvents(t *testing.T) {
	b := New(8)
	for i := 0; i < 5; i++ {
		b.Publish("e", "t", i)
	}
	s := b.Subscribe(8, 2, nil) // resume after seq 2: expect 3, 4, 5
	defer s.Close()
	got := drain(s)
	if len(got) != 3 {
		t.Fatalf("replayed %d events, want 3", len(got))
	}
	for i, ev := range got {
		if want := uint64(3 + i); ev.Seq != want {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if n := s.Dropped(); n != 0 {
		t.Fatalf("dropped = %d, want 0", n)
	}
}

func TestResumeBeyondRingCountsGap(t *testing.T) {
	b := New(4)
	for i := 0; i < 10; i++ {
		b.Publish("e", "t", i)
	}
	// Ring holds seqs 7..10; resuming after 2 loses 3..6.
	s := b.Subscribe(8, 2, nil)
	defer s.Close()
	got := drain(s)
	if len(got) != 4 {
		t.Fatalf("replayed %d events, want 4", len(got))
	}
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("replay seqs %d..%d, want 7..10", got[0].Seq, got[3].Seq)
	}
	if n := s.Dropped(); n != 4 {
		t.Fatalf("gap dropped = %d, want 4", n)
	}
}

func TestResumeReplayExceedingBufferIsNotDropped(t *testing.T) {
	// The ring retains far more events than the subscriber's live buffer;
	// a resume must deliver ALL of them — retained history must never be
	// converted into phantom drops by a small buffer.
	b := New(256)
	for i := 0; i < 200; i++ {
		b.Publish("e", "t", i)
	}
	s := b.Subscribe(4, 0, nil)
	defer s.Close()
	got := drain(s)
	if len(got) != 200 {
		t.Fatalf("replayed %d events, want all 200 retained", len(got))
	}
	if n := s.Dropped(); n != 0 {
		t.Fatalf("dropped = %d, want 0 (everything was retained)", n)
	}
}

func TestResumeFromFutureEpochReplaysWithGap(t *testing.T) {
	// A cursor larger than the bus's current seq comes from a previous bus
	// incarnation (server restart). The consumer must get the new epoch's
	// retained events plus a gap signal — never a silent skip.
	b := New(8)
	b.Publish("e", "t", nil)
	b.Publish("e", "t", nil)
	s := b.Subscribe(8, 5000, nil)
	defer s.Close()
	got := drain(s)
	if len(got) != 2 {
		t.Fatalf("replayed %d events, want the full ring (2)", len(got))
	}
	if n := s.Dropped(); n == 0 {
		t.Fatal("epoch-reset resume reported no gap")
	}
}

func TestSlowSubscriberDropsInsteadOfBlocking(t *testing.T) {
	b := New(64)
	s := b.Subscribe(2, Live, nil)
	defer s.Close()
	for i := 0; i < 10; i++ {
		b.Publish("e", "t", i) // never blocks
	}
	got := drain(s)
	if len(got) != 2 {
		t.Fatalf("buffered %d events, want 2", len(got))
	}
	if n := s.Dropped(); n != 8 {
		t.Fatalf("dropped = %d, want 8", n)
	}
	// The counter resets once read.
	if n := s.Dropped(); n != 0 {
		t.Fatalf("dropped after reset = %d, want 0", n)
	}
}

func TestMatchFiltersDeliveryAndDrops(t *testing.T) {
	b := New(16)
	s := b.Subscribe(1, Live, func(ev Event) bool { return ev.Topic == "web" })
	defer s.Close()
	b.Publish("e", "other", nil) // filtered: neither delivered nor dropped
	b.Publish("e", "web", nil)
	b.Publish("e", "web", nil) // buffer full: dropped
	if got := drain(s); len(got) != 1 || got[0].Topic != "web" {
		t.Fatalf("got %+v, want one web event", got)
	}
	if n := s.Dropped(); n != 1 {
		t.Fatalf("dropped = %d, want 1", n)
	}
}

func TestCloseUnsubscribesAndClosesChannel(t *testing.T) {
	b := New(8)
	s := b.Subscribe(2, Live, nil)
	s.Close()
	s.Close() // idempotent
	b.Publish("e", "t", nil)
	if _, ok := <-s.Events(); ok {
		t.Fatal("expected closed channel after Close")
	}
}

func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New(128)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish("e", fmt.Sprintf("t%d", p), i)
			}
		}(p)
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := b.Subscribe(16, 0, nil)
			defer s.Close()
			for i := 0; i < 50; i++ {
				select {
				case <-s.Events():
				default:
				}
				s.Dropped()
			}
		}()
	}
	wg.Wait()
	if got := b.Seq(); got != 800 {
		t.Fatalf("final seq = %d, want 800", got)
	}
}

// TestDroppedAccountsEveryEventUnderConcurrentPublish reads Dropped while
// publishers race to overflow a small buffer: every published event is
// either delivered or counted by exactly one Dropped call (run with -race).
func TestDroppedAccountsEveryEventUnderConcurrentPublish(t *testing.T) {
	const publishers, each = 4, 2000
	b := New(16)
	s := b.Subscribe(4, Live, nil)
	defer s.Close()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Publish("e", "t", nil)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var delivered, dropped uint64
	for running := true; running; {
		select {
		case <-s.Events():
			delivered++
		case <-done:
			running = false
		}
		dropped += s.Dropped()
	}
	delivered += uint64(len(drain(s)))
	dropped += s.Dropped()
	if delivered+dropped != publishers*each {
		t.Fatalf("delivered %d + dropped %d = %d, want %d published",
			delivered, dropped, delivered+dropped, publishers*each)
	}
	if dropped == 0 {
		t.Fatal("no drop observed: the buffer never overflowed, so the test checked nothing")
	}
}
