// Package difftest is the repository's differential/metamorphic correctness
// harness. The codebase carries four distinct ingest paths — serial
// (core.Sketch.Update), batched (UpdateBatch and the engine Batcher),
// sharded (fcm.Sharded / engine.Engine) and PISA-simulated (pisa.Switch) —
// plus two hash modes (one-pass wide and per-tree), and the paper's §8
// hardware result rests on the claim that all of them agree bit-for-bit.
// This package turns that claim from an informal assertion into enforced
// invariants:
//
//   - oracle-backed equivalence: identical traces run through the exact
//     tracker (internal/exact), the software sketch, the sharded engine,
//     the batched paths and the PISA pipeline; counter state must be
//     bit-exact across sketch paths and estimates must be one-sided and
//     bounded against the oracle;
//   - metamorphic invariants: batch==serial, shard-merge==serial,
//     snapshot/merge commutativity and associativity, rotate-under-load
//     linearity, wire-codec round-trip identity — over randomized
//     geometries, key distributions and fault schedules;
//   - state-machine and input fuzzing: native go test fuzz targets
//     (FuzzSketchOps, FuzzPcapIngest, FuzzEMInput) with checked-in seed
//     corpora under testdata/fuzz.
//
// Every randomized check derives from a single int64 seed and prints it on
// failure, so any differential divergence reproduces with
// `go test ./internal/difftest -run <test> -seed <printed seed>`.
package difftest

import (
	"fmt"
	"math/rand"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/pisa"
)

// Geometry pins one complete sketch shape: tree arity, count, stage widths,
// leaf width, hash seed and hash mode. Two data planes built from the same
// Geometry place every increment in the same counter, so "bit-exact" is a
// meaningful cross-path assertion.
type Geometry struct {
	K           int
	Trees       int
	Widths      []int
	LeafWidth   int
	Seed        uint32
	PerTreeHash bool
}

// String names the geometry compactly for subtest labels and failures.
func (g Geometry) String() string {
	mode := "wide"
	if g.PerTreeHash {
		mode = "pertree"
	}
	return fmt.Sprintf("k%d_d%d_w%v_leaf%d_%s", g.K, g.Trees, g.Widths, g.LeafWidth, mode)
}

// CoreConfig returns the internal/core configuration for this geometry,
// with the hash family from hashing.DataPlaneFamily — the derivation
// fcm.Config and pisa.SwitchConfig share, so a sketch built here is
// bit-comparable to the fcm/pisa planes for the same Geometry.Seed.
func (g Geometry) CoreConfig() core.Config {
	return core.Config{
		K:           g.K,
		Trees:       g.Trees,
		Widths:      append([]int(nil), g.Widths...),
		LeafWidth:   g.LeafWidth,
		Hash:        hashing.DataPlaneFamily(g.Seed),
		PerTreeHash: g.PerTreeHash,
	}
}

// NewCore builds a software sketch with this geometry.
func (g Geometry) NewCore() (*core.Sketch, error) {
	return core.New(g.CoreConfig())
}

// SwitchConfig returns the PISA pipeline configuration that yields a data
// plane bit-identical to NewCore (same geometry, same seed derivation, same
// hash mode).
func (g Geometry) SwitchConfig() pisa.SwitchConfig {
	return pisa.SwitchConfig{
		Program:     pisa.ProgramFCM,
		Trees:       g.Trees,
		K:           g.K,
		Widths:      append([]int(nil), g.Widths...),
		LeafWidth:   g.LeafWidth,
		Seed:        g.Seed,
		PerTreeHash: g.PerTreeHash,
	}
}

// FCMConfig returns the public fcm.Config equivalent of this geometry.
func (g Geometry) FCMConfig() fcm.Config {
	return fcm.Config{
		K: g.K, Trees: g.Trees, Widths: append([]int(nil), g.Widths...),
		LeafWidth: g.LeafWidth, Seed: g.Seed, PerTreeHash: g.PerTreeHash,
	}
}

// newSharded builds the public sharded sketch for this geometry.
func newSharded(g Geometry, shards int) (*fcm.Sharded, error) {
	return fcm.NewSharded(g.FCMConfig(), shards)
}

// newRng is the package's one seeding idiom for math/rand sources.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Geometries returns the fixed geometry matrix the equivalence suite sweeps:
// the paper's byte-aligned default shape, a deep narrow tree that overflows
// constantly (so carry/promotion seams are exercised, not just leaf hits), a
// binary tree with sub-byte widths, and a per-tree-hash variant of the
// default so both placement modes face the same invariants.
func Geometries() []Geometry {
	return []Geometry{
		{K: 8, Trees: 2, Widths: []int{8, 16, 32}, LeafWidth: 512, Seed: 0},
		{K: 4, Trees: 2, Widths: []int{3, 5, 8, 16}, LeafWidth: 256, Seed: 7},
		{K: 2, Trees: 3, Widths: []int{2, 4, 8}, LeafWidth: 64, Seed: 21},
		{K: 8, Trees: 2, Widths: []int{8, 16, 32}, LeafWidth: 512, Seed: 0, PerTreeHash: true},
	}
}

// RandomGeometry draws a small random geometry from rng: arity in
// {2,4,8,16}, 1–3 trees, 2–4 strictly increasing stage widths, and a leaf
// width of 1–4 alignment units. Every draw is constructible (core.New
// cannot reject it) so fuzzers and trial loops never waste a seed.
func RandomGeometry(rng *rand.Rand) Geometry {
	ks := []int{2, 4, 8, 16}
	k := ks[rng.Intn(len(ks))]
	depth := 2 + rng.Intn(3)
	widths := make([]int, 0, depth)
	// Strictly increasing widths in [2,32]: draw gaps and cap the root.
	w := 2 + rng.Intn(4)
	for i := 0; i < depth; i++ {
		if w > 32 {
			w = 32
		}
		widths = append(widths, w)
		w += 1 + rng.Intn(8)
	}
	align := 1
	for i := 1; i < depth; i++ {
		align *= k
	}
	g := Geometry{
		K:           k,
		Trees:       1 + rng.Intn(3),
		Widths:      widths,
		LeafWidth:   align * (1 + rng.Intn(4)),
		Seed:        rng.Uint32(),
		PerTreeHash: rng.Intn(4) == 0,
	}
	return g
}

// splitmix64 advances the canonical SplitMix64 state — the harness's seed
// deriver, so one printed trial seed regenerates geometry, workload and
// fault schedule alike without chaining math/rand state across checks.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed returns the i-th child seed of base, stable across runs.
func DeriveSeed(base int64, i int) int64 {
	s := uint64(base)
	for j := 0; j <= i%16; j++ {
		splitmix64(&s)
	}
	s ^= uint64(i) * 0x9e3779b97f4a7c15
	return int64(splitmix64(&s))
}
