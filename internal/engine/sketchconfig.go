package engine

import (
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
)

// SketchConfig parameterizes an FCM-Sketch. The zero value of every field
// selects the paper's defaults (§7.2): two 8-ary trees of 8/16/32-bit
// stages. It is the public fcm.Config; it lives here so the layers below
// the public API (the window ring) can take it without importing it.
type SketchConfig struct {
	// MemoryBytes is the total counter budget. Exactly one of MemoryBytes
	// and LeafWidth must be positive.
	MemoryBytes int
	// LeafWidth sets w1 (stage-1 nodes per tree) directly instead of
	// solving it from MemoryBytes.
	LeafWidth int
	// K is the tree arity (default 8; the paper recommends 8 for plain
	// FCM and 16 under a Top-K filter).
	K int
	// Trees is the number of independent trees (default 2).
	Trees int
	// Widths is the per-stage counter width in bits, leaves first
	// (default 8,16,32).
	Widths []int
	// Seed derives the hash functions; sketches with equal seeds and
	// geometry are mergeable snapshots of each other.
	Seed uint32
	// PerTreeHash forces one independent hash evaluation per tree instead
	// of the default one-pass mode, which derives every tree's index from
	// a single two-lane hash of the key. The modes place counters
	// differently, so sketches built in different modes do not merge.
	PerTreeHash bool
}

// WithDefaults fills c's zero fields with the paper's defaults. Widths is
// defensively copied so a caller mutating its slice after building a
// sketch cannot corrupt the sketch geometry.
func WithDefaults(c SketchConfig) SketchConfig {
	if c.K == 0 {
		c.K = 8
	}
	if c.Trees == 0 {
		c.Trees = 2
	}
	if len(c.Widths) == 0 {
		c.Widths = core.DefaultWidths()
	} else {
		c.Widths = append([]int(nil), c.Widths...)
	}
	return c
}

// CoreConfig converts c, defaults applied, to the internal configuration:
// the hash family is the data plane's, derived from c.Seed.
func CoreConfig(c SketchConfig) core.Config {
	return core.Config{
		K:           c.K,
		Trees:       c.Trees,
		Widths:      c.Widths,
		MemoryBytes: c.MemoryBytes,
		LeafWidth:   c.LeafWidth,
		Hash:        hashing.DataPlaneFamily(c.Seed),
		PerTreeHash: c.PerTreeHash,
	}
}
