package sched

import (
	"math/rand"
	"testing"
)

// checkFifoInvariants asserts the structural invariants pop's compaction
// must preserve: the dead prefix stays bounded relative to the live
// region, every popped slot is nil'd (no *batch pinned past its pop), and
// len() agrees with the live region.
func checkFifoInvariants(t *testing.T, q *fifo, live int) {
	t.Helper()
	if got := q.len(); got != live {
		t.Fatalf("len() = %d, want %d", got, live)
	}
	if q.head < 0 || q.head > len(q.items) {
		t.Fatalf("head %d out of range [0,%d]", q.head, len(q.items))
	}
	if q.head > 64 && q.head*2 >= len(q.items) {
		t.Fatalf("dead prefix not compacted: head %d, backing %d", q.head, len(q.items))
	}
	for i := 0; i < q.head; i++ {
		if q.items[i] != nil {
			t.Fatalf("popped slot %d still holds a batch (leak)", i)
		}
	}
}

// TestFifoOrderAcrossCompaction drives enough traffic through one fifo to
// force many compactions and checks strict FIFO order throughout.
func TestFifoOrderAcrossCompaction(t *testing.T) {
	var q fifo
	next, popped := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 100; i++ {
			q.push(&batch{jobs: make([]*job, 0, next)}) // cap encodes push order
			next++
		}
		for i := 0; i < 99; i++ { // drain almost all: head crosses 64 repeatedly
			b := q.pop()
			if b == nil {
				t.Fatalf("pop %d returned nil with %d live", popped, next-popped)
			}
			if cap(b.jobs) != popped {
				t.Fatalf("pop %d returned batch pushed at %d: FIFO order broken", popped, cap(b.jobs))
			}
			popped++
			checkFifoInvariants(t, &q, next-popped)
		}
	}
	for q.len() > 0 {
		if cap(q.pop().jobs) != popped {
			t.Fatal("FIFO order broken in final drain")
		}
		popped++
	}
	if q.pop() != nil {
		t.Fatal("pop on empty fifo must return nil")
	}
	checkFifoInvariants(t, &q, 0)
}

// TestFifoRandomizedAgainstModel runs a randomized push/pop interleaving
// against a plain-slice model queue.
func TestFifoRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fifo
	var model []*batch
	for op := 0; op < 100_000; op++ {
		if rng.Intn(2) == 0 {
			b := &batch{}
			q.push(b)
			model = append(model, b)
		} else {
			got := q.pop()
			if len(model) == 0 {
				if got != nil {
					t.Fatalf("op %d: pop on empty returned %p", op, got)
				}
			} else {
				if got != model[0] {
					t.Fatalf("op %d: pop returned wrong batch", op)
				}
				model = model[1:]
			}
		}
		checkFifoInvariants(t, &q, len(model))
	}
}

// fairnessShard builds a detached shard (no scheduler goroutines) so
// popLocked can be driven deterministically.
func fairnessShard(weight int) *shard {
	sc := &Scheduler{cfg: Config{Shards: 1, FlowWeight: weight}.withDefaults()}
	return newShard(sc, 0)
}

// pushJobs queues one batch of n jobs of class c.
func pushJobs(sh *shard, c Class, n int) {
	b := &batch{class: c}
	for i := 0; i < n; i++ {
		b.jobs = append(b.jobs, &job{class: c})
	}
	sh.mu.Lock()
	sh.pushLocked(b)
	sh.mu.Unlock()
}

// TestPopLockedFairnessProperty drives popLocked under randomized
// push/pop interleavings with randomized batch sizes and checks the
// FlowWeight contract: whenever both classes are queued, batch-class work
// is dispatched only after at least FlowWeight flow-class jobs ran since
// the previous batch-class dispatch — and never starved beyond that by
// more than one flow batch of overshoot.
func TestPopLockedFairnessProperty(t *testing.T) {
	const weight = 16
	const maxBatchJobs = 8
	rng := rand.New(rand.NewSource(7))
	sh := fairnessShard(weight)

	flowSinceBatch := 0 // flow-class jobs popped since the last batch-class pop
	contested := true   // both queues non-empty for the whole interval so far
	var popFlow, popBatch int

	for op := 0; op < 200_000; op++ {
		if rng.Intn(3) > 0 { // keep the queues mostly non-empty
			if rng.Intn(2) == 0 {
				pushJobs(sh, ClassFlow, 1+rng.Intn(maxBatchJobs))
			} else {
				pushJobs(sh, ClassBatch, 1+rng.Intn(maxBatchJobs))
			}
		}
		sh.mu.Lock()
		nf, nb := sh.queued[ClassFlow], sh.queued[ClassBatch]
		b := sh.popLocked()
		sh.mu.Unlock()
		if b == nil {
			if nf+nb != 0 {
				t.Fatalf("op %d: popLocked returned nil with %d+%d jobs queued (not work-conserving)", op, nf, nb)
			}
			// Empty queues change nothing: credit is reset only by a
			// batch-class dispatch, so the measurement carries over.
			continue
		}
		if nf == 0 || nb == 0 {
			// Uncontested interval: the weighted contract only binds while
			// both classes compete, so restart the measurement.
			contested = false
		}
		switch b.class {
		case ClassFlow:
			popFlow += len(b.jobs)
			flowSinceBatch += len(b.jobs)
		case ClassBatch:
			popBatch += len(b.jobs)
			if contested && flowSinceBatch < weight {
				t.Fatalf("op %d: batch class dispatched after only %d flow jobs (weight %d)",
					op, flowSinceBatch, weight)
			}
			// Overshoot is bounded: credit goes negative by at most one
			// flow batch beyond the weight.
			if contested && flowSinceBatch >= weight+maxBatchJobs {
				t.Fatalf("op %d: batch class waited for %d flow jobs (weight %d, max overshoot %d)",
					op, flowSinceBatch, weight, maxBatchJobs-1)
			}
			flowSinceBatch = 0
			contested = true
		}
	}
	if popFlow == 0 || popBatch == 0 {
		t.Fatalf("degenerate run: %d flow, %d batch jobs popped", popFlow, popBatch)
	}
}

// TestPopLockedWorkConserving pins the uncontested cases: with only one
// class queued it drains regardless of credit state.
func TestPopLockedWorkConserving(t *testing.T) {
	sh := fairnessShard(4)
	sh.mu.Lock()
	sh.flowCredit = 0 // exhausted credit must not block a lone flow queue
	sh.mu.Unlock()
	pushJobs(sh, ClassFlow, 3)
	sh.mu.Lock()
	b := sh.popLocked()
	sh.mu.Unlock()
	if b == nil || b.class != ClassFlow {
		t.Fatalf("lone flow queue did not drain: %+v", b)
	}

	pushJobs(sh, ClassBatch, 2)
	sh.mu.Lock()
	sh.flowCredit = 100
	b = sh.popLocked()
	qd := sh.queued[ClassFlow] + sh.queued[ClassBatch]
	sh.mu.Unlock()
	if b == nil || b.class != ClassBatch {
		t.Fatalf("lone batch queue did not drain: %+v", b)
	}
	if qd != 0 {
		t.Fatalf("queued = %d after draining everything, want 0", qd)
	}
}
