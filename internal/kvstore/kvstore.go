// Package kvstore implements the storage-layer substrate: a key-value
// store with provisioned throughput, modelled on Amazon DynamoDB — the
// storage layer of the paper's click-stream flow (Fig. 1), where the Storm
// topology "persists the aggregated results".
//
// The model reproduces the DynamoDB properties Flower's control plane
// depends on:
//
//   - capacity is provisioned per table in write capacity units (one WCU =
//     one 1 KiB write per second) and read capacity units (one RCU = one
//     strongly consistent 4 KiB read per second);
//   - a burst-credit bucket stores up to 300 seconds of unused capacity,
//     as DynamoDB documents, smoothing short spikes;
//   - requests beyond provisioned-plus-burst capacity are throttled and
//     counted;
//   - provisioned capacity can be changed at runtime, which is the actuator
//     surface ("increasing or decreasing ... NoSQL throughputs capacity");
//   - consumed/provisioned/throttle metrics are published per tick, which
//     is the sensor surface.
package kvstore

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metricstore"
)

// DynamoDB-documented unit sizes and burst window.
const (
	WriteUnitBytes = 1024     // 1 WCU = one 1 KiB write per second
	ReadUnitBytes  = 4 * 1024 // 1 RCU = one 4 KiB strongly consistent read per second
	BurstSeconds   = 300      // up to 5 minutes of unused capacity is banked
)

// Namespace is the metric namespace tables publish under.
const Namespace = "Storage/KVStore"

// Metric names published each tick.
const (
	MetricConsumedWCU      = "ConsumedWriteCapacityUnits"
	MetricConsumedRCU      = "ConsumedReadCapacityUnits"
	MetricProvisionedWCU   = "ProvisionedWriteCapacityUnits"
	MetricProvisionedRCU   = "ProvisionedReadCapacityUnits"
	MetricThrottledWrites  = "WriteThrottleEvents"
	MetricThrottledReads   = "ReadThrottleEvents"
	MetricWriteUtilization = "WriteUtilization" // consumed / provisioned, percent
	MetricReadUtilization  = "ReadUtilization"
	MetricItemCount        = "ItemCount"
)

// ErrThrottled is returned when a request exceeds provisioned + burst
// capacity, mirroring DynamoDB's ProvisionedThroughputExceededException.
var ErrThrottled = errors.New("kvstore: provisioned throughput exceeded")

// Table is a simulated provisioned-throughput table.
type Table struct {
	name string
	wcu  float64 // provisioned write capacity units
	rcu  float64 // provisioned read capacity units

	minWCU, maxWCU float64
	minRCU, maxRCU float64

	items    map[string]struct{} // keys written through PutItem
	aggItems int                 // distinct items written through the batch path

	// Per-tick consumption and throttle counters, reset on Tick.
	tickWCU, tickRCU                    float64
	tickWriteThrottle, tickReadThrottle int

	// Burst-credit buckets (unit-seconds of banked capacity).
	writeBurst, readBurst float64

	// partitions is non-trivial (len > 1) when the hot-partition model is
	// enabled; see partitions.go.
	partitions []partitionState

	stepSeconds float64

	store *metricstore.Store
	dims  map[string]string

	// Per-tick publish handles, resolved once at construction so Tick's
	// metric writes are allocation-free (nil when store is nil).
	mConsumedWCU    *metricstore.Handle
	mConsumedRCU    *metricstore.Handle
	mProvisionedWCU *metricstore.Handle
	mProvisionedRCU *metricstore.Handle
	mWriteThrottles *metricstore.Handle
	mReadThrottles  *metricstore.Handle
	mWriteUtil      *metricstore.Handle
	mReadUtil       *metricstore.Handle
	mItemCount      *metricstore.Handle
}

// Config parameterises a table.
type Config struct {
	Name string
	WCU  float64 // initial provisioned write capacity
	RCU  float64 // initial provisioned read capacity
	// MinWCU / MaxWCU clamp the write-capacity actuator; zero MaxWCU means
	// effectively unbounded.
	MinWCU, MaxWCU float64
	// MinRCU / MaxRCU clamp the read-capacity actuator likewise.
	MinRCU, MaxRCU float64
	// Partitions enables the hot-partition model: provisioned throughput
	// is split evenly across this many hash partitions (default 1 = a
	// single uniform pool).
	Partitions int
}

// NewTable creates a table publishing metrics to store (nil for standalone
// use).
func NewTable(cfg Config, store *metricstore.Store) (*Table, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("kvstore: table name is required")
	}
	if cfg.WCU <= 0 || cfg.RCU < 0 {
		return nil, fmt.Errorf("kvstore: capacities must be positive (wcu=%v rcu=%v)", cfg.WCU, cfg.RCU)
	}
	if cfg.MinWCU <= 0 {
		cfg.MinWCU = 1
	}
	if cfg.MaxWCU <= 0 {
		cfg.MaxWCU = 1 << 30
	}
	if cfg.MinWCU > cfg.MaxWCU {
		return nil, fmt.Errorf("kvstore: MinWCU %v > MaxWCU %v", cfg.MinWCU, cfg.MaxWCU)
	}
	if cfg.MinRCU <= 0 {
		cfg.MinRCU = 1
	}
	if cfg.MaxRCU <= 0 {
		cfg.MaxRCU = 1 << 30
	}
	if cfg.MinRCU > cfg.MaxRCU {
		return nil, fmt.Errorf("kvstore: MinRCU %v > MaxRCU %v", cfg.MinRCU, cfg.MaxRCU)
	}
	t := &Table{
		name:        cfg.Name,
		wcu:         cfg.WCU,
		rcu:         cfg.RCU,
		minWCU:      cfg.MinWCU,
		maxWCU:      cfg.MaxWCU,
		minRCU:      cfg.MinRCU,
		maxRCU:      cfg.MaxRCU,
		items:       make(map[string]struct{}),
		stepSeconds: 1,
		store:       store,
		dims:        map[string]string{"TableName": cfg.Name},
	}
	if store != nil {
		t.mConsumedWCU = store.MustHandle(Namespace, MetricConsumedWCU, t.dims)
		t.mConsumedRCU = store.MustHandle(Namespace, MetricConsumedRCU, t.dims)
		t.mProvisionedWCU = store.MustHandle(Namespace, MetricProvisionedWCU, t.dims)
		t.mProvisionedRCU = store.MustHandle(Namespace, MetricProvisionedRCU, t.dims)
		t.mWriteThrottles = store.MustHandle(Namespace, MetricThrottledWrites, t.dims)
		t.mReadThrottles = store.MustHandle(Namespace, MetricThrottledReads, t.dims)
		t.mWriteUtil = store.MustHandle(Namespace, MetricWriteUtilization, t.dims)
		t.mReadUtil = store.MustHandle(Namespace, MetricReadUtilization, t.dims)
		t.mItemCount = store.MustHandle(Namespace, MetricItemCount, t.dims)
	}
	if cfg.Partitions > 1 {
		if err := t.SetPartitions(cfg.Partitions); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// WCU reports the provisioned write capacity units.
func (t *Table) WCU() float64 { return t.wcu }

// RCU reports the provisioned read capacity units.
func (t *Table) RCU() float64 { return t.rcu }

// MinWCU returns the write-capacity actuator's lower bound.
func (t *Table) MinWCU() float64 { return t.minWCU }

// MaxWCU returns the write-capacity actuator's upper bound.
func (t *Table) MaxWCU() float64 { return t.maxWCU }

// MinRCU returns the read-capacity actuator's lower bound.
func (t *Table) MinRCU() float64 { return t.minRCU }

// MaxRCU returns the read-capacity actuator's upper bound.
func (t *Table) MaxRCU() float64 { return t.maxRCU }

// ItemCount reports how many items the table holds.
func (t *Table) ItemCount() int { return len(t.items) + t.aggItems }

// SetWriteCapacity reprovisions WCU, clamped to [MinWCU, MaxWCU]. This is
// the actuator Flower's storage controller drives.
func (t *Table) SetWriteCapacity(wcu float64) error {
	if wcu < t.minWCU {
		wcu = t.minWCU
	}
	if wcu > t.maxWCU {
		wcu = t.maxWCU
	}
	t.wcu = wcu
	return nil
}

// SetReadCapacity reprovisions RCU, clamped to [MinRCU, MaxRCU]. With the
// dashboard read workload enabled this is the actuator a second storage
// controller drives — the paper's "DynamoDB read/write units" (§2).
func (t *Table) SetReadCapacity(rcu float64) error {
	if rcu < 0 {
		return fmt.Errorf("kvstore: negative RCU %v", rcu)
	}
	if rcu < t.minRCU {
		rcu = t.minRCU
	}
	if rcu > t.maxRCU {
		rcu = t.maxRCU
	}
	t.rcu = rcu
	return nil
}

// writeUnits returns the WCU cost of writing size bytes.
func writeUnits(size int) float64 {
	if size <= 0 {
		return 1
	}
	return float64((size + WriteUnitBytes - 1) / WriteUnitBytes)
}

// readUnits returns the RCU cost of a strongly consistent read of size bytes.
func readUnits(size int) float64 {
	if size <= 0 {
		return 1
	}
	return float64((size + ReadUnitBytes - 1) / ReadUnitBytes)
}

// PutItem writes an item, consuming WCU. When the tick budget plus burst
// credit is exhausted the write is rejected with ErrThrottled.
func (t *Table) PutItem(key string, value []byte) error {
	units := writeUnits(len(value))
	// With the hot-partition model, the key's partition slice must have
	// room; the partition budgets sum to the table budget, so an accepted
	// partition charge implies table-level feasibility up to burst skew.
	if len(t.partitions) > 1 && !t.chargeWritePartition(key, units) {
		t.tickWriteThrottle++
		return fmt.Errorf("%w: table %s hot partition (write)", ErrThrottled, t.name)
	}
	budget := t.wcu * t.stepSeconds
	if over := t.tickWCU + units - budget; over > 0 {
		// Charge only this request's share beyond the budget to burst
		// credit; earlier requests already paid for theirs.
		if over > units {
			over = units
		}
		if over > t.writeBurst {
			t.tickWriteThrottle++
			return fmt.Errorf("%w: table %s write", ErrThrottled, t.name)
		}
		t.writeBurst -= over
	}
	t.tickWCU += units
	t.items[key] = struct{}{}
	return nil
}

// TickWCUConsumed reports write units consumed so far this tick.
func (t *Table) TickWCUConsumed() float64 { return t.tickWCU }

// TickWriteThrottles reports write throttle events so far this tick.
func (t *Table) TickWriteThrottles() int { return t.tickWriteThrottle }

// Tick publishes this tick's metrics, banks unused capacity as burst
// credit, and resets per-tick counters.
func (t *Table) Tick(now time.Time, step time.Duration) {
	t.stepSeconds = step.Seconds()
	writeBudget := t.wcu * t.stepSeconds
	readBudget := t.rcu * t.stepSeconds

	writeUtil := 0.0
	if writeBudget > 0 {
		writeUtil = t.tickWCU / writeBudget * 100
	}
	readUtil := 0.0
	if readBudget > 0 {
		readUtil = t.tickRCU / readBudget * 100
	}

	if t.store != nil {
		t.mConsumedWCU.MustAppend(now, t.tickWCU)
		t.mConsumedRCU.MustAppend(now, t.tickRCU)
		t.mProvisionedWCU.MustAppend(now, t.wcu)
		t.mProvisionedRCU.MustAppend(now, t.rcu)
		t.mWriteThrottles.MustAppend(now, float64(t.tickWriteThrottle))
		t.mReadThrottles.MustAppend(now, float64(t.tickReadThrottle))
		t.mWriteUtil.MustAppend(now, writeUtil)
		t.mReadUtil.MustAppend(now, readUtil)
		t.mItemCount.MustAppend(now, float64(t.ItemCount()))
	}

	// Bank unused capacity, capped at BurstSeconds worth of provision.
	if unused := writeBudget - t.tickWCU; unused > 0 {
		t.writeBurst += unused
	}
	if maxBurst := t.wcu * BurstSeconds; t.writeBurst > maxBurst {
		t.writeBurst = maxBurst
	}
	if unused := readBudget - t.tickRCU; unused > 0 {
		t.readBurst += unused
	}
	if maxBurst := t.rcu * BurstSeconds; t.readBurst > maxBurst {
		t.readBurst = maxBurst
	}

	t.tickPartitions()

	t.tickWCU = 0
	t.tickRCU = 0
	t.tickWriteThrottle = 0
	t.tickReadThrottle = 0
}

// WriteBurstCredit reports the banked write capacity (unit-seconds).
func (t *Table) WriteBurstCredit() float64 { return t.writeBurst }
