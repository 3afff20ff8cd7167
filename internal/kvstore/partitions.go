package kvstore

import (
	"fmt"
	"hash/fnv"
)

// Partitioning. DynamoDB divides a table's provisioned throughput evenly
// across its internal partitions, so a table with ample aggregate capacity
// can still throttle a hot key whose partition's slice is exhausted — the
// classic "hot partition" problem. Modelling it matters for elasticity:
// raising a table's WCU does not help a workload that hammers one key.
//
// A Table is created with Config.Partitions (default 1 = the uniform model
// used by the flow experiments). With P > 1 partitions, each PutItem is
// routed by key hash and charged against that partition's 1/P share of the
// per-tick budget and burst credit; the uniform batch writes and reads
// (batch.go) charge each partition an even share.

// partitionState tracks one partition's per-tick consumption and burst.
type partitionState struct {
	tickWCU, tickRCU      float64
	writeBurst, readBurst float64
}

// partitionFor routes a key to a partition index.
func partitionFor(key string, partitions int) int {
	if partitions <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(partitions))
}

// SetPartitions reconfigures the partition count, resetting per-partition
// accounting (as a repartition does in the real service). Items are
// unaffected; only throughput accounting changes.
func (t *Table) SetPartitions(p int) error {
	if p < 1 {
		return fmt.Errorf("kvstore: partitions must be >= 1, got %d", p)
	}
	t.partitions = make([]partitionState, p)
	return nil
}

// Partitions reports the partition count.
func (t *Table) Partitions() int {
	if len(t.partitions) == 0 {
		return 1
	}
	return len(t.partitions)
}

// partitionBudget returns the per-partition share of a per-tick budget.
func (t *Table) partitionBudget(total float64) float64 {
	return total / float64(t.Partitions())
}

// chargeWritePartition charges units against the key's partition slice of the
// per-tick budget; returns false when the partition (budget + burst) is
// exhausted. Only called when partitioning is enabled.
func (t *Table) chargeWritePartition(key string, units float64) bool {
	p := &t.partitions[partitionFor(key, len(t.partitions))]
	budget := t.partitionBudget(t.wcu * t.stepSeconds)
	if over := p.tickWCU + units - budget; over > 0 {
		if over > units {
			over = units
		}
		if over > p.writeBurst {
			return false
		}
		p.writeBurst -= over
	}
	p.tickWCU += units
	return true
}

// tickPartitions banks per-partition burst and resets counters; called
// from Tick.
func (t *Table) tickPartitions() {
	if len(t.partitions) == 0 {
		return
	}
	writeBudget := t.partitionBudget(t.wcu * t.stepSeconds)
	readBudget := t.partitionBudget(t.rcu * t.stepSeconds)
	maxWrite := t.partitionBudget(t.wcu) * BurstSeconds
	maxRead := t.partitionBudget(t.rcu) * BurstSeconds
	for i := range t.partitions {
		p := &t.partitions[i]
		if unused := writeBudget - p.tickWCU; unused > 0 {
			p.writeBurst += unused
		}
		if p.writeBurst > maxWrite {
			p.writeBurst = maxWrite
		}
		if unused := readBudget - p.tickRCU; unused > 0 {
			p.readBurst += unused
		}
		if p.readBurst > maxRead {
			p.readBurst = maxRead
		}
		p.tickWCU = 0
		p.tickRCU = 0
	}
}
