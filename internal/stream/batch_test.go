package stream

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func now() time.Time { return time.Unix(1700000000, 0) }

func TestPutCountsBudgetEnforced(t *testing.T) {
	s, err := New("t", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// stepSeconds defaults to 1 → 1000 records/shard budget.
	acc, rej, err := s.PutCounts(now(), []int{1500, 400}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1400 {
		t.Errorf("accepted = %d, want 1400 (1000 capped + 400)", acc)
	}
	if rej != 500 {
		t.Errorf("throttled = %d, want 500", rej)
	}
	if got := s.BacklogRecords(); got != 1400 {
		t.Errorf("backlog = %d, want 1400", got)
	}
}

func TestPutCountsByteBudget(t *testing.T) {
	s, err := New("t", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MiB/s per shard; 600 records of 2 KiB = 1.2 MiB exceeds it, so
	// only ~512 records fit by bytes even though 600 < 1000 by count.
	acc, rej, err := s.PutCounts(now(), []int{600}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	wantAcc := (1 << 20) / 2048
	if acc != wantAcc {
		t.Errorf("accepted = %d, want %d (byte-budget bound)", acc, wantAcc)
	}
	if acc+rej != 600 {
		t.Errorf("accepted+throttled = %d, want 600", acc+rej)
	}
}

func TestPutCountsWrongLength(t *testing.T) {
	s, err := New("t", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PutCounts(now(), []int{1, 2}, 10); err == nil {
		t.Fatal("mismatched counts length accepted")
	}
}

func TestPutCountsMixesWithPutRecord(t *testing.T) {
	s, err := New("t", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 700 per-record then 700 counted: the second batch must see the
	// shard's remaining budget (300), not a fresh one.
	for i := 0; i < 700; i++ {
		if err := put(s, "k", 1); err != nil {
			t.Fatalf("record %d throttled unexpectedly: %v", i, err)
		}
	}
	acc, rej, err := s.PutCounts(now(), []int{700}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 300 || rej != 400 {
		t.Errorf("accepted/throttled = %d/%d, want 300/400", acc, rej)
	}
	if got := s.BacklogRecords(); got != 1000 {
		t.Errorf("backlog = %d, want 1000", got)
	}
}

func TestDrainCountDrainsBothKinds(t *testing.T) {
	s, err := New("t", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := put(s, "k", 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.PutCounts(now(), []int{7}, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.DrainCount(10); got != 10 {
		t.Errorf("DrainCount(10) = %d, want 10", got)
	}
	if got := s.BacklogRecords(); got != 2 {
		t.Errorf("backlog after drain = %d, want 2", got)
	}
	if got := s.DrainCount(100); got != 2 {
		t.Errorf("second DrainCount = %d, want 2", got)
	}
}

func TestReshardCarriesCountedBacklog(t *testing.T) {
	s, err := New("t", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PutCounts(now(), []int{500, 501}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateShardCount(5); err != nil {
		t.Fatal(err)
	}
	if got := s.BacklogRecords(); got != 1001 {
		t.Errorf("backlog after reshard = %d, want 1001", got)
	}
	// Even spread with remainder on the first shard.
	counts := make([]int, 0, 5)
	for _, sh := range s.Shards() {
		counts = append(counts, sh.backlog)
	}
	sum := 0
	for _, c := range counts {
		if c < 200 || c > 201 {
			t.Errorf("per-shard counted backlog %v not evenly spread", counts)
			break
		}
		sum += c
	}
	if sum != 1001 {
		t.Errorf("counted backlog sum = %d, want 1001", sum)
	}
}

func TestPutCountsConservation(t *testing.T) {
	f := func(raw []uint16, shardsRaw uint8) bool {
		shards := int(shardsRaw%8) + 1
		s, err := New("t", shards, nil)
		if err != nil {
			return false
		}
		counts := make([]int, shards)
		offered := 0
		for i := range counts {
			if i < len(raw) {
				counts[i] = int(raw[i]) % 3000
			}
			offered += counts[i]
		}
		acc, rej, err := s.PutCounts(now(), counts, 64)
		if err != nil {
			return false
		}
		return acc+rej == offered && s.BacklogRecords() == acc && acc >= 0 && rej >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKeyPopulationWeightsSumToOne(t *testing.T) {
	pop := UniformUserPopulation(10000)
	if pop.Size() != 10000 {
		t.Fatalf("Size = %d", pop.Size())
	}
	for _, shards := range []int{1, 2, 7, 64} {
		s, err := New("t", shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := pop.Weights(s.Shards())
		sum := 0.0
		for _, x := range w {
			if x < 0 {
				t.Fatalf("negative weight %v", x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%d shards: weights sum %v, want 1", shards, sum)
		}
	}
}

func TestKeyPopulationWeightsMatchPerRecordRouting(t *testing.T) {
	// The weights must equal the empirical per-record routing frequencies:
	// same keys, same hash, same shard ranges.
	const users = 2000
	pop := UniformUserPopulation(users)
	s, err := New("t", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := pop.Weights(s.Shards())

	counts := make(map[*Shard]int)
	rng := rand.New(rand.NewSource(1))
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.shardFor(pop.Hash(rng.Intn(users)))]++
	}
	for i, sh := range s.Shards() {
		frac := float64(counts[sh]) / draws
		if math.Abs(frac-w[i]) > 0.01 {
			t.Errorf("shard %d: empirical %.4f vs weight %.4f", i, frac, w[i])
		}
	}
}

// TestUniformUserPopulationSharedAndEqualToPrivate: concurrent first
// requests for one size — flows on different scheduler shards reaching
// their first tick together — all get the same instance, and that instance
// yields exactly the weights a privately built population does, over random
// shard layouts including after a reshard. Run under -race this is also the
// proof that sharing is read-only.
func TestUniformUserPopulationSharedAndEqualToPrivate(t *testing.T) {
	const users = 7321 // a size no other test requests: the build races here
	keys := make([]string, users)
	for i := range keys {
		keys[i] = "user-" + itoa(i)
	}
	private := NewKeyPopulation(keys)

	const workers = 8
	got := make([]*KeyPopulation, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			pop := UniformUserPopulation(users)
			got[g] = pop
			for layout := 0; layout < 20; layout++ {
				s, err := New("t", 1+rng.Intn(64), nil)
				if err != nil {
					t.Error(err)
					return
				}
				for pass := 0; pass < 2; pass++ {
					if w, want := pop.Weights(s.Shards()), private.Weights(s.Shards()); !reflect.DeepEqual(w, want) {
						t.Errorf("worker %d, %d shards: shared weights %v, private %v", g, s.ShardCount(), w, want)
						return
					}
					if err := s.UpdateShardCount(1 + rng.Intn(64)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < workers; g++ {
		if got[g] != got[0] {
			t.Fatalf("worker %d got population %p, worker 0 got %p: want one shared instance", g, got[g], got[0])
		}
	}
	if got[0].Size() != users {
		t.Fatalf("Size = %d, want %d", got[0].Size(), users)
	}
	for i, k := range keys {
		if h, want := got[0].Hash(i), hashKey(k); h != want {
			t.Fatalf("Hash(%d) = %x, want the hash of %q, %x", i, h, k, want)
		}
	}
}

func TestKeyPopulationEmpty(t *testing.T) {
	pop := NewKeyPopulation(nil)
	s, err := New("t", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range pop.Weights(s.Shards()) {
		if x != 0 {
			t.Errorf("empty population produced weight %v", x)
		}
	}
}

// itoa avoids pulling strconv into the test's hot loop signature churn.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
