// Package exact maintains exact per-flow statistics as the ground truth all
// sketch estimates are scored against: per-flow counts, flow-size
// distribution, entropy, cardinality and the heavy-hitter set.
package exact

import (
	"math"

	"github.com/fcmsketch/fcm/internal/packet"
)

// Tracker counts flows exactly using a hash map. It implements the same
// Update interface as the sketches so harness code can treat it uniformly.
type Tracker struct {
	counts map[packet.Key]uint64
	total  uint64
}

// New returns an empty Tracker.
func New() *Tracker {
	return &Tracker{counts: make(map[packet.Key]uint64)}
}

// UpdateKey adds inc to the count of the flow identified by k.
func (t *Tracker) UpdateKey(k packet.Key, inc uint64) {
	t.counts[k] += inc
	t.total += inc
}

// Count returns the exact count of flow k.
func (t *Tracker) Count(k packet.Key) uint64 { return t.counts[k] }

// Total returns the total number of recorded packets.
func (t *Tracker) Total() uint64 { return t.total }

// Cardinality returns the exact number of distinct flows.
func (t *Tracker) Cardinality() int { return len(t.counts) }

// Flows calls fn for every flow and its exact count.
func (t *Tracker) Flows(fn func(k packet.Key, count uint64)) {
	for k, c := range t.counts {
		fn(k, c)
	}
}

// HeavyHitters returns the set of flows with count ≥ threshold.
func (t *Tracker) HeavyHitters(threshold uint64) map[packet.Key]uint64 {
	hh := make(map[packet.Key]uint64)
	for k, c := range t.counts {
		if c >= threshold {
			hh[k] = c
		}
	}
	return hh
}

// Distribution returns the exact flow-size distribution: dist[s] is the
// number of flows with exactly s packets. Index 0 is unused.
func (t *Tracker) Distribution() []float64 {
	var max uint64
	for _, c := range t.counts {
		if c > max {
			max = c
		}
	}
	dist := make([]float64, max+1)
	for _, c := range t.counts {
		dist[c]++
	}
	return dist
}

// Entropy returns the exact flow entropy
// H = -Σ_i (x_i/m)·log2(x_i/m) over flows i with total m packets.
func (t *Tracker) Entropy() float64 {
	if t.total == 0 {
		return 0
	}
	m := float64(t.total)
	h := 0.0
	for _, c := range t.counts {
		p := float64(c) / m
		h -= p * math.Log2(p)
	}
	return h
}

// HeavyChanges compares two trackers (adjacent time windows) and returns
// flows whose count changed by at least threshold in absolute value.
func HeavyChanges(a, b *Tracker, threshold uint64) map[packet.Key]int64 {
	out := make(map[packet.Key]int64)
	for k, ca := range a.counts {
		d := int64(b.counts[k]) - int64(ca)
		if d >= int64(threshold) || -d >= int64(threshold) {
			out[k] = d
		}
	}
	for k, cb := range b.counts {
		if _, seen := a.counts[k]; seen {
			continue
		}
		if cb >= threshold {
			out[k] = int64(cb)
		}
	}
	return out
}
