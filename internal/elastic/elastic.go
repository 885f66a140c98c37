// Package elastic implements ElasticSketch (Yang et al., SIGCOMM 2018
// [59]): a Top-K heavy-part filter (internal/topk) in front of a light
// part of small (8-bit) Count-Min counters. It is the strongest generic
// baseline the FCM paper compares against (§7.5), and §8 emulates it on
// Tofino as CM(d)+TopK with a single-level no-eviction filter.
package elastic

import (
	"fmt"
	"math"

	"github.com/fcmsketch/fcm/internal/cmsketch"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/topk"
)

// Config parameterizes ElasticSketch.
type Config struct {
	// MemoryBytes is the total budget: the Top-K part takes
	// Levels×EntriesPerLevel buckets, the light part gets the rest.
	MemoryBytes int
	// TopKLevels is the heavy-part depth (software default 4; the Tofino
	// emulation uses 1).
	TopKLevels int
	// TopKEntries is the bucket count per level (software default 8192).
	TopKEntries int
	// LightRows is the light-part row count d (default 1; the CM(d)+TopK
	// hardware emulation sweeps 2/4/8).
	LightRows int
	// LightBits is the light counter width (default 8, per the paper).
	LightBits int
	// KeySize is the flow-key byte length for accounting (default 4).
	KeySize int
	// NoEviction selects the Tofino-feasible single-probe heavy part.
	NoEviction bool
	// Hash supplies hash functions; nil selects BobHash.
	Hash hashing.Family
}

// Sketch is an ElasticSketch instance.
type Sketch struct {
	heavy *topk.Filter
	light *cmsketch.Sketch
}

// New builds an ElasticSketch.
func New(cfg Config) (*Sketch, error) {
	levels := cfg.TopKLevels
	if levels == 0 {
		levels = 4
	}
	entries := cfg.TopKEntries
	if entries == 0 {
		entries = 8192
	}
	rows := cfg.LightRows
	if rows == 0 {
		rows = 1
	}
	bits := cfg.LightBits
	if bits == 0 {
		bits = 8
	}
	var fam hashing.Family = cfg.Hash
	if fam == nil {
		fam = hashing.NewBobFamily(0xe1a571c)
	}
	heavy, err := topk.New(topk.Config{
		Levels:          levels,
		EntriesPerLevel: entries,
		KeySize:         cfg.KeySize,
		NoEviction:      cfg.NoEviction,
		Hash:            &offsetFamily{fam, 0},
	})
	if err != nil {
		return nil, fmt.Errorf("elastic: heavy part: %w", err)
	}
	lightBytes := cfg.MemoryBytes - heavy.MemoryBytes()
	if lightBytes < rows*bits/8 {
		return nil, fmt.Errorf("elastic: memory %dB leaves no room for the light part (heavy uses %dB)",
			cfg.MemoryBytes, heavy.MemoryBytes())
	}
	light, err := cmsketch.New(cmsketch.Config{
		MemoryBytes: lightBytes,
		Rows:        rows,
		Bits:        bits,
		Hash:        &offsetFamily{fam, 16},
	})
	if err != nil {
		return nil, fmt.Errorf("elastic: light part: %w", err)
	}
	return &Sketch{heavy: heavy, light: light}, nil
}

// offsetFamily shifts family indices so the heavy and light parts draw
// disjoint hash functions from one base family.
type offsetFamily struct {
	fam hashing.Family
	off int
}

func (o *offsetFamily) New(i int) hashing.Hasher { return o.fam.New(i + o.off) }

// Update implements sketch.Updater.
func (s *Sketch) Update(key []byte, inc uint64) {
	rk, rc := s.heavy.Update(key, inc)
	if rc != 0 {
		s.light.Update(rk, rc)
	}
}

// Estimate implements sketch.Estimator (§6: heavy count, plus the light
// estimate when the resident flow was installed by eviction).
func (s *Sketch) Estimate(key []byte) uint64 {
	count, found, flagged := s.heavy.Lookup(key)
	if !found {
		return s.light.Estimate(key)
	}
	if flagged {
		return count + s.light.Estimate(key)
	}
	return count
}

// HeavyHitters returns resident flows whose full estimate reaches the
// threshold, keyed by the raw flow-key bytes.
func (s *Sketch) HeavyHitters(threshold uint64) map[string]uint64 {
	hh := make(map[string]uint64)
	s.heavy.Entries(func(key []byte, count uint64, flagged bool) {
		if flagged {
			count += s.light.Estimate(key)
		}
		if count >= threshold {
			hh[string(key)] = count
		}
	})
	return hh
}

// Cardinality implements sketch.CardinalityEstimator: linear counting over
// the light part plus the resident heavy flows (ElasticSketch §4.3).
func (s *Sketch) Cardinality() float64 {
	row := s.light.Row(0)
	zeros := 0
	for _, v := range row {
		if v == 0 {
			zeros++
		}
	}
	m := float64(len(row))
	lc := 0.0
	if zeros == 0 {
		zeros = 1
	}
	lc = -m * math.Log(float64(zeros)/m)
	// Unflagged residents never touched the light part; add them.
	extra := 0
	s.heavy.Entries(func(_ []byte, _ uint64, flagged bool) {
		if !flagged {
			extra++
		}
	})
	return lc + float64(extra)
}

// EstimateDistribution estimates the flow-size distribution: EM over the
// light part's first row (degree-1 counters) plus the heavy residents
// counted exactly (the ElasticSketch FSD method).
func (s *Sketch) EstimateDistribution(iterations, workers int) ([]float64, error) {
	return Distribution(s.light, s.heavy, em.Config{Iterations: iterations, Workers: workers})
}

// Distribution is the ElasticSketch FSD estimator over a light part and
// a heavy filter, shared with the CM(d)+TopK hardware emulation: EM over
// light's first row as degree-1 counters (cfg.W1 is set to the row
// length), plus heavy's residents counted exactly.
func Distribution(light *cmsketch.Sketch, heavy *topk.Filter, cfg em.Config) ([]float64, error) {
	row := light.Row(0)
	vcs := make([]core.VirtualCounter, len(row))
	for i, v := range row {
		vcs[i] = core.VirtualCounter{Value: uint64(v), Degree: 1, Level: 1}
	}
	cfg.W1 = len(row)
	res, err := em.Run(cfg, [][]core.VirtualCounter{vcs})
	if err != nil {
		return nil, err
	}
	return heavy.AddResidents(res.Dist, light.Estimate), nil
}

// MemoryBytes implements sketch.Sized.
func (s *Sketch) MemoryBytes() int { return s.heavy.MemoryBytes() + s.light.MemoryBytes() }

// HeavyMemoryBytes returns the heavy part's share.
func (s *Sketch) HeavyMemoryBytes() int { return s.heavy.MemoryBytes() }

// Reset implements sketch.Resettable.
func (s *Sketch) Reset() {
	s.heavy.Reset()
	s.light.Reset()
}
