// Package topk implements the Top-K heavy-flow filter of ElasticSketch
// (Yang et al., SIGCOMM 2018 [59]) used both by the Elastic baseline and by
// FCM+TopK (§6). Buckets vote: a resident flow accumulates positive votes,
// non-resident arrivals accumulate negative votes, and when the ratio
// crosses λ (=8) the resident is evicted ("ostracism") with its count
// flushed to the light part. A multi-level filter cascades evictions into
// the next level; the single-level no-eviction variant models the Tofino
// implementation of §8.1 (duplicate hash table + stateful ALUs).
package topk

import (
	"fmt"

	"github.com/fcmsketch/fcm/internal/hashing"
)

// entry is one bucket.
type entry struct {
	key  [13]byte
	klen uint8
	flag bool // resident flow may have earlier packets in the light part
	pos  uint64
	neg  uint64
}

func (e *entry) matches(key []byte) bool {
	if e.klen == 0 || int(e.klen) != len(key) {
		return false
	}
	for i, b := range key {
		if e.key[i] != b {
			return false
		}
	}
	return true
}

// Config parameterizes the filter.
type Config struct {
	// Levels is the number of bucket arrays (ElasticSketch software: 4;
	// FCM+TopK and all hardware variants: 1).
	Levels int
	// EntriesPerLevel is the bucket count per level.
	EntriesPerLevel int
	// Lambda is the eviction vote ratio λ (default 8).
	Lambda int
	// KeySize is the flow-key byte length for memory accounting
	// (default 4).
	KeySize int
	// NoEviction selects the Tofino-feasible variant: buckets never
	// evict; colliding packets bypass straight to the light part.
	NoEviction bool
	// Hash supplies per-level hash functions; nil selects BobHash.
	Hash hashing.Family
}

// Filter is a Top-K heavy-flow filter.
type Filter struct {
	levels  [][]entry
	hashers []hashing.Hasher
	lambda  uint64
	keySize int
	noEvict bool

	// residKey is the buffer backing the residual key returned by Update.
	residKey [13]byte
}

// New builds a filter.
func New(cfg Config) (*Filter, error) {
	if cfg.Levels <= 0 {
		return nil, fmt.Errorf("topk: Levels must be positive, got %d", cfg.Levels)
	}
	if cfg.EntriesPerLevel <= 0 {
		return nil, fmt.Errorf("topk: EntriesPerLevel must be positive, got %d", cfg.EntriesPerLevel)
	}
	lambda := cfg.Lambda
	if lambda <= 0 {
		lambda = 8
	}
	ks := cfg.KeySize
	if ks == 0 {
		ks = 4
	}
	if ks > 13 {
		return nil, fmt.Errorf("topk: KeySize %d exceeds 13", ks)
	}
	fam := cfg.Hash
	if fam == nil {
		fam = hashing.NewBobFamily(0x70b4b1e)
	}
	f := &Filter{lambda: uint64(lambda), keySize: ks, noEvict: cfg.NoEviction}
	for i := 0; i < cfg.Levels; i++ {
		f.levels = append(f.levels, make([]entry, cfg.EntriesPerLevel))
		f.hashers = append(f.hashers, fam.New(i))
	}
	return f, nil
}

// Update processes one arrival. The returned residual (key, count) must be
// added to the light part by the caller; count 0 means the filter absorbed
// the arrival. The residual key slice is only valid until the next call.
func (f *Filter) Update(key []byte, inc uint64) ([]byte, uint64) {
	return f.insert(0, key, inc, false)
}

// insert places (key, inc) at the given level, cascading evictions.
func (f *Filter) insert(level int, key []byte, inc uint64, fromEviction bool) ([]byte, uint64) {
	if level >= len(f.levels) {
		return key, inc
	}
	i := hashing.Reduce(f.hashers[level].Hash(key), len(f.levels[level]))
	e := &f.levels[level][i]
	switch {
	case e.matches(key):
		e.pos += inc
		return nil, 0
	case e.klen == 0:
		copy(e.key[:], key)
		e.klen = uint8(len(key))
		e.pos = inc
		e.neg = 0
		e.flag = fromEviction
		return nil, 0
	case f.noEvict:
		// Hardware variant: resident keeps the bucket; bypass.
		return key, inc
	}
	e.neg += inc
	if e.neg < f.lambda*e.pos {
		// Vote failed: the arrival goes to the light part.
		return key, inc
	}
	// Ostracism: evict the resident into the next level (or the light
	// part from the last level) and install the newcomer. The newcomer's
	// earlier packets live in the light part, so it is flagged.
	var evKey [13]byte
	evLen := e.klen
	copy(evKey[:], e.key[:e.klen])
	evCount := e.pos
	copy(e.key[:], key)
	e.klen = uint8(len(key))
	e.pos = inc
	e.neg = 1
	e.flag = true
	rk, rc := f.insert(level+1, evKey[:evLen], evCount, true)
	if rc != 0 {
		copy(f.residKey[:], rk)
		return f.residKey[:len(rk)], rc
	}
	return nil, 0
}

// Lookup returns the filter's count for key, whether the key is resident,
// and whether its flag is set (earlier packets may be in the light part).
func (f *Filter) Lookup(key []byte) (count uint64, found, flagged bool) {
	for lvl, buckets := range f.levels {
		i := hashing.Reduce(f.hashers[lvl].Hash(key), len(buckets))
		e := &buckets[i]
		if e.matches(key) {
			return e.pos, true, e.flag
		}
	}
	return 0, false, false
}

// Entries calls fn for every resident flow.
func (f *Filter) Entries(fn func(key []byte, count uint64, flagged bool)) {
	for lvl := range f.levels {
		for i := range f.levels[lvl] {
			e := &f.levels[lvl][i]
			if e.klen > 0 {
				fn(e.key[:e.klen], e.pos, e.flag)
			}
		}
	}
}

// AddResidents adds every resident flow to the flow-size distribution
// dist (dist[j] counts flows of size j), growing it as needed, and returns
// it. A resident's size is its exact count, plus light(key) — the light
// part's estimate — when its flag says earlier packets went there.
func (f *Filter) AddResidents(dist []float64, light func(key []byte) uint64) []float64 {
	f.Entries(func(key []byte, count uint64, flagged bool) {
		if flagged {
			count += light(key)
		}
		if count == 0 {
			return
		}
		for uint64(len(dist)) <= count {
			dist = append(dist, 0)
		}
		dist[count]++
	})
	return dist
}

// Len returns the number of resident flows.
func (f *Filter) Len() int {
	n := 0
	for lvl := range f.levels {
		for i := range f.levels[lvl] {
			if f.levels[lvl][i].klen > 0 {
				n++
			}
		}
	}
	return n
}

// MemoryBytes implements sketch.Sized: each bucket costs key + vote+ +
// vote− + flag = KeySize + 9 bytes.
func (f *Filter) MemoryBytes() int {
	n := 0
	for _, l := range f.levels {
		n += len(l)
	}
	return n * (f.keySize + 9)
}

// BucketBytes returns the per-bucket cost used by MemoryBytes, so callers
// can size a filter for a byte budget.
func BucketBytes(keySize int) int {
	if keySize == 0 {
		keySize = 4
	}
	return keySize + 9
}

// Reset implements sketch.Resettable.
func (f *Filter) Reset() {
	for lvl := range f.levels {
		for i := range f.levels[lvl] {
			f.levels[lvl][i] = entry{}
		}
	}
}
