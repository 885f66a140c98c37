package fcm

import (
	"fmt"

	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/sketch"
	"github.com/fcmsketch/fcm/internal/topk"
)

// TopKConfig parameterizes FCM+TopK (§6): an ElasticSketch-style Top-K
// heavy-flow filter in front of an FCM-Sketch holding the residual flows.
type TopKConfig struct {
	// Config sizes the backing FCM-Sketch. MemoryBytes is the TOTAL
	// budget: the Top-K table is carved out first and the sketch gets
	// the remainder. The paper's default arity under a filter is 16.
	Config
	// TopKEntries is the filter size (paper software default: 4096
	// entries in a single level).
	TopKEntries int
	// TopKLevels is the filter depth (default 1).
	TopKLevels int
	// KeySize is the flow-key length in bytes for memory accounting
	// (default 4, source IP).
	KeySize int
	// NoEviction selects the Tofino-feasible filter variant of §8.1.
	NoEviction bool
}

// TopKSketch is FCM+TopK. Heavy flows are pinned with exact counts in the
// filter; everything else lands in the FCM-Sketch. Unlike the plain
// Sketch, it can enumerate its heavy hitters.
type TopKSketch struct {
	cfg    TopKConfig
	filter *topk.Filter
	sketch *Sketch
}

// NewTopK builds an FCM+TopK instance.
func NewTopK(cfg TopKConfig) (*TopKSketch, error) {
	if cfg.K == 0 {
		cfg.K = 16 // §7.4's recommendation under a Top-K filter
	}
	entries := cfg.TopKEntries
	if entries == 0 {
		entries = 4096
	}
	levels := cfg.TopKLevels
	if levels == 0 {
		levels = 1
	}
	filter, err := topk.New(topk.Config{
		Levels:          levels,
		EntriesPerLevel: entries,
		KeySize:         cfg.KeySize,
		NoEviction:      cfg.NoEviction,
		Hash:            hashing.NewBobFamily(0x70fcb ^ cfg.Seed),
	})
	if err != nil {
		return nil, fmt.Errorf("fcm: topk filter: %w", err)
	}
	sketchCfg := cfg.Config
	if sketchCfg.MemoryBytes > 0 {
		sketchCfg.MemoryBytes -= filter.MemoryBytes()
		if sketchCfg.MemoryBytes <= 0 {
			return nil, fmt.Errorf("fcm: memory %dB leaves nothing for the sketch after a %dB filter",
				cfg.MemoryBytes, filter.MemoryBytes())
		}
	}
	sk, err := NewSketch(sketchCfg)
	if err != nil {
		return nil, err
	}
	cfg.TopKEntries = entries
	cfg.TopKLevels = levels
	cfg.Config = sk.Config()
	return &TopKSketch{cfg: cfg, filter: filter, sketch: sk}, nil
}

// Update records inc occurrences of key.
func (t *TopKSketch) Update(key []byte, inc uint64) {
	rk, rc := t.filter.Update(key, inc)
	if rc != 0 {
		t.sketch.Update(rk, rc)
	}
}

// Estimate returns the combined count estimate for key.
func (t *TopKSketch) Estimate(key []byte) uint64 {
	count, found, flagged := t.filter.Lookup(key)
	if !found {
		return t.sketch.Estimate(key)
	}
	if flagged {
		return count + t.sketch.Estimate(key)
	}
	return count
}

// HeavyHitters enumerates the filter's resident flows whose total estimate
// reaches threshold, keyed by the raw flow-key bytes.
func (t *TopKSketch) HeavyHitters(threshold uint64) map[string]uint64 {
	hh := make(map[string]uint64)
	t.filter.Entries(func(key []byte, count uint64, flagged bool) {
		if flagged {
			count += t.sketch.Estimate(key)
		}
		if count >= threshold {
			hh[string(key)] = count
		}
	})
	return hh
}

// Cardinality estimates distinct flows: Linear Counting on the sketch plus
// residents that never touched it.
func (t *TopKSketch) Cardinality() float64 {
	n := t.sketch.Cardinality()
	t.filter.Entries(func(_ []byte, _ uint64, flagged bool) {
		if !flagged {
			n++
		}
	})
	return n
}

// FlowSizeDistribution runs EM on the residual sketch and adds the filter
// residents exactly — the FCM+TopK estimator evaluated in §7.
func (t *TopKSketch) FlowSizeDistribution(opt *EMOptions) ([]float64, error) {
	res, err := em.RunSketch(t.sketch.s, opt)
	if err != nil {
		return nil, fmt.Errorf("fcm: %w", err)
	}
	return t.filter.AddResidents(res.Dist, t.sketch.Estimate), nil
}

// MemoryBytes returns the combined footprint of filter and sketch.
func (t *TopKSketch) MemoryBytes() int {
	return t.filter.MemoryBytes() + t.sketch.MemoryBytes()
}

// FilterMemoryBytes returns the Top-K table's share.
func (t *TopKSketch) FilterMemoryBytes() int { return t.filter.MemoryBytes() }

// Sketch returns the backing FCM-Sketch (residual flows).
func (t *TopKSketch) Sketch() *Sketch { return t.sketch }

// Filter exposes the Top-K filter for the PISA compiler and collectors.
func (t *TopKSketch) Filter() *topk.Filter { return t.filter }

// Reset clears both parts for the next measurement window.
func (t *TopKSketch) Reset() {
	t.filter.Reset()
	t.sketch.Reset()
}

// MergeFrom implements the sketch.Mergeable contract for FCM+TopK. The
// residual FCM-Sketches merge exactly; the other filter's resident flows
// are then re-inserted through this filter's normal update path, so
// evictions spill into the sketch exactly as if those packets had arrived
// here. Unlike Sketch.Merge this is approximate (eviction order depends on
// arrival order), but estimates remain one-sided for unflagged residents.
func (t *TopKSketch) MergeFrom(other sketch.Estimator) error {
	o, ok := other.(*TopKSketch)
	if !ok {
		return fmt.Errorf("fcm: cannot merge %T into *fcm.TopKSketch", other)
	}
	if !configsEqual(t.cfg.Config, o.cfg.Config) ||
		t.cfg.TopKEntries != o.cfg.TopKEntries || t.cfg.TopKLevels != o.cfg.TopKLevels ||
		t.cfg.NoEviction != o.cfg.NoEviction {
		return fmt.Errorf("fcm: topk merge config mismatch: %+v vs %+v", t.cfg, o.cfg)
	}
	if err := t.sketch.Merge(o.sketch); err != nil {
		return err
	}
	o.filter.Entries(func(key []byte, count uint64, _ bool) {
		if count == 0 {
			return
		}
		rk, rc := t.filter.Update(key, count)
		if rc != 0 {
			t.sketch.Update(rk, rc)
		}
	})
	return nil
}
