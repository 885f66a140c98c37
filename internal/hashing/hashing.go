// Package hashing provides the hash functions used throughout the FCM
// framework: BobHash (Bob Jenkins' lookup3, the default recommended by the
// sketch literature and by the FCM paper §7.1), Murmur3 (32-bit), an
// xxHash64-style 64-bit hash, and a multiply-shift pairwise-independent
// family used by the accuracy-analysis tests.
//
// All implementations are from scratch and depend only on the standard
// library. Hash functions are deterministic for a given seed, so every
// experiment in the repository is reproducible.
package hashing

import (
	"encoding/binary"
	"math/bits"
)

// Hasher is a seeded hash function over byte strings. Implementations must
// be safe for concurrent use (they are stateless after construction).
type Hasher interface {
	// Hash returns a 64-bit hash of key.
	Hash(key []byte) uint64
}

// Family constructs independent Hashers from an integer index. Sketches
// that need d independent hash functions draw them from a Family so that
// multi-tree / multi-row structures are pairwise independent.
type Family interface {
	// New returns the i-th hash function of the family.
	New(i int) Hasher
}

// ---------------------------------------------------------------------------
// BobHash: Bob Jenkins' lookup3 (hashlittle2 variant), the classic "BobHash"
// used by CM-Sketch reference code and recommended by Henke et al. [30].
// ---------------------------------------------------------------------------

// Bob is a seeded BobHash (Jenkins lookup3) instance.
type Bob struct {
	seed uint32
}

// NewBob returns a BobHash instance with the given seed.
func NewBob(seed uint32) *Bob { return &Bob{seed: seed} }

// Hash implements Hasher. It returns the two 32-bit lookup3 results
// combined into one 64-bit value.
func (b *Bob) Hash(key []byte) uint64 {
	pc, pb := lookup3(key, b.seed, b.seed)
	return uint64(pc)<<32 | uint64(pb)
}

func rot32(x uint32, k uint) uint32 { return x<<k | x>>(32-k) }

// mix and final are the lookup3 mixing primitives.
func mix(a, b, c uint32) (uint32, uint32, uint32) {
	a -= c
	a ^= rot32(c, 4)
	c += b
	b -= a
	b ^= rot32(a, 6)
	a += c
	c -= b
	c ^= rot32(b, 8)
	b += a
	a -= c
	a ^= rot32(c, 16)
	c += b
	b -= a
	b ^= rot32(a, 19)
	a += c
	c -= b
	c ^= rot32(b, 4)
	b += a
	return a, b, c
}

func final(a, b, c uint32) (uint32, uint32, uint32) {
	c ^= b
	c -= rot32(b, 14)
	a ^= c
	a -= rot32(c, 11)
	b ^= a
	b -= rot32(a, 25)
	c ^= b
	c -= rot32(b, 16)
	a ^= c
	a -= rot32(c, 4)
	b ^= a
	b -= rot32(a, 14)
	c ^= b
	c -= rot32(b, 24)
	return a, b, c
}

// lookup3 is hashlittle2: it returns two 32-bit hash values (pc, pb).
func lookup3(key []byte, pc, pb uint32) (uint32, uint32) {
	length := len(key)
	a := 0xdeadbeef + uint32(length) + pc
	b := a
	c := a + pb

	i := 0
	for length > 12 {
		a += binary.LittleEndian.Uint32(key[i:])
		b += binary.LittleEndian.Uint32(key[i+4:])
		c += binary.LittleEndian.Uint32(key[i+8:])
		a, b, c = mix(a, b, c)
		i += 12
		length -= 12
	}

	// Tail: read the remaining 0..12 bytes without touching memory past
	// the end of the slice.
	tail := key[i:]
	switch len(tail) {
	case 12:
		c += binary.LittleEndian.Uint32(tail[8:])
		b += binary.LittleEndian.Uint32(tail[4:])
		a += binary.LittleEndian.Uint32(tail)
	case 11:
		c += uint32(tail[10]) << 16
		fallthrough
	case 10:
		c += uint32(tail[9]) << 8
		fallthrough
	case 9:
		c += uint32(tail[8])
		fallthrough
	case 8:
		b += binary.LittleEndian.Uint32(tail[4:])
		a += binary.LittleEndian.Uint32(tail)
	case 7:
		b += uint32(tail[6]) << 16
		fallthrough
	case 6:
		b += uint32(tail[5]) << 8
		fallthrough
	case 5:
		b += uint32(tail[4])
		fallthrough
	case 4:
		a += binary.LittleEndian.Uint32(tail)
	case 3:
		a += uint32(tail[2]) << 16
		fallthrough
	case 2:
		a += uint32(tail[1]) << 8
		fallthrough
	case 1:
		a += uint32(tail[0])
	case 0:
		return c, b
	}
	a, b, c = final(a, b, c)
	return c, b
}

// BobWide is the one-pass multi-index hasher: a single lookup3 pass
// (hashlittle2) yields two independent 32-bit lanes, from which the leaf
// indexes of every tree of a multi-tree sketch are derived without hashing
// the key again. It is the hot-path replacement for d separate BobHash
// evaluations; see WideIndex for the (pinned) derivation.
type BobWide struct {
	seed uint32
}

// NewBobWide returns a one-pass wide hasher with the given seed.
func NewBobWide(seed uint32) *BobWide { return &BobWide{seed: seed} }

// Seed returns the seed, so sketch compatibility checks can verify two
// wide hashers place counters identically.
func (w *BobWide) Seed() uint32 { return w.seed }

// Pair returns the two 32-bit lookup3 lanes for key. This is the single
// hash pass all per-tree indexes derive from.
func (w *BobWide) Pair(key []byte) (pc, pb uint32) {
	return lookup3(key, w.seed, w.seed)
}

// Hash implements Hasher with the same value a Bob of the same seed
// returns, so a BobWide doubles as the tree-0 hasher.
func (w *BobWide) Hash(key []byte) uint64 {
	pc, pb := lookup3(key, w.seed, w.seed)
	return uint64(pc)<<32 | uint64(pb)
}

// WideIndex derives tree i's leaf index in [0, n) from the two lookup3
// lanes of one Pair call. The derivation is a stable contract (counter
// placement on the wire and in snapshots depends on it; a golden test pins
// it):
//
//   - tree 0 reduces pc‖pb — identical to Bob.Hash, so single-tree sketches
//     are unchanged by the one-pass path;
//   - tree 1 reduces pb‖pc, using the second independent lane for the
//     index-deciding high bits (d ≤ 2, the paper's default, costs no extra
//     mixing);
//   - trees ≥ 2 reduce a splitmix64 expansion of the 64-bit pair, keyed by
//     the tree number, which decorrelates any number of further trees.
func WideIndex(pc, pb uint32, i, n int) int {
	if i == 0 {
		return WideIndex0(pc, pb, n)
	}
	if i == 1 {
		return WideIndex1(pc, pb, n)
	}
	return wideIndexDeep(pc, pb, i, n)
}

// WideIndex0 and WideIndex1 are the d ≤ 2 lanes of WideIndex, split out
// so they inline into sketch update loops (WideIndex itself is over the
// inlining budget).
func WideIndex0(pc, pb uint32, n int) int { return Reduce(uint64(pc)<<32|uint64(pb), n) }

// WideIndex1 is tree 1's lane; see WideIndex0.
func WideIndex1(pc, pb uint32, n int) int { return Reduce(uint64(pb)<<32|uint64(pc), n) }

func wideIndexDeep(pc, pb uint32, i, n int) int {
	state := (uint64(pc)<<32 | uint64(pb)) ^ uint64(i)*0x9e3779b97f4a7c15
	return Reduce(splitmix64(&state), n)
}

// WideFamily is implemented by hash families whose d member functions can
// be evaluated with a single pass over the key. Sketches detect it to
// switch to one-pass multi-index hashing.
type WideFamily interface {
	Family
	// Wide returns the one-pass hasher whose WideIndex derivations stand
	// in for the family's members.
	Wide() *BobWide
}

// BobFamily is a Family of BobHash functions derived from a base seed.
type BobFamily struct {
	base uint32
}

// NewBobFamily returns a BobHash family. Different i values produce
// independent hash functions.
func NewBobFamily(base uint32) *BobFamily { return &BobFamily{base: base} }

// dataPlaneBase is the base every FCM sketch folds its user seed into.
const dataPlaneBase = 0xfc3141

// DataPlaneFamily is the hash family of an FCM sketch built with the given
// seed — by fcm.Config, a pisa switch, or a collection tier restoring a
// switch's registers. Two sketches answer per-flow queries consistently
// only when both derive their family here from the same seed.
func DataPlaneFamily(seed uint32) *BobFamily { return NewBobFamily(dataPlaneBase ^ seed) }

// New implements Family.
func (f *BobFamily) New(i int) Hasher {
	// Derive the per-function seed by hashing the index with the base
	// seed so that nearby indices do not produce correlated functions.
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(i)*0x9e3779b9+1)
	pc, _ := lookup3(buf[:], f.base, f.base^0x5bd1e995)
	return NewBob(pc)
}

// Wide implements WideFamily: the whole family collapses to one lookup3
// pass seeded like member 0, with per-tree indexes derived via WideIndex.
func (f *BobFamily) Wide() *BobWide {
	b := f.New(0).(*Bob)
	return NewBobWide(b.seed)
}

// ---------------------------------------------------------------------------
// Murmur3 (32-bit)
// ---------------------------------------------------------------------------

// Murmur3 is a seeded MurmurHash3 x86_32 instance.
type Murmur3 struct {
	seed uint32
}

// NewMurmur3 returns a Murmur3 hasher with the given seed.
func NewMurmur3(seed uint32) *Murmur3 { return &Murmur3{seed: seed} }

// Sum32 returns the 32-bit Murmur3 hash of key.
func (m *Murmur3) Sum32(key []byte) uint32 { return murmur3Sum32(m.seed, key) }

// murmur3Sum32 is the seed-parameterized core, so the 64-bit Hash can run
// its decorrelated second pass without constructing a throwaway instance.
func murmur3Sum32(seed uint32, key []byte) uint32 {
	const (
		c1 = 0xcc9e2d51
		c2 = 0x1b873593
	)
	h := seed
	n := len(key)
	i := 0
	for ; i+4 <= n; i += 4 {
		k := binary.LittleEndian.Uint32(key[i:])
		k *= c1
		k = rot32(k, 15)
		k *= c2
		h ^= k
		h = rot32(h, 13)
		h = h*5 + 0xe6546b64
	}
	var k uint32
	switch n & 3 {
	case 3:
		k ^= uint32(key[i+2]) << 16
		fallthrough
	case 2:
		k ^= uint32(key[i+1]) << 8
		fallthrough
	case 1:
		k ^= uint32(key[i])
		k *= c1
		k = rot32(k, 15)
		k *= c2
		h ^= k
	}
	h ^= uint32(n)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Hash implements Hasher. Two passes with decorrelated seeds produce a
// 64-bit result.
func (m *Murmur3) Hash(key []byte) uint64 {
	lo := murmur3Sum32(m.seed, key)
	hi := murmur3Sum32(m.seed^0x9e3779b9, key)
	return uint64(hi)<<32 | uint64(lo)
}

// Murmur3Family is a Family of Murmur3 functions.
type Murmur3Family struct{ base uint32 }

// NewMurmur3Family returns a Murmur3 Family with the given base seed.
func NewMurmur3Family(base uint32) *Murmur3Family { return &Murmur3Family{base: base} }

// New implements Family.
func (f *Murmur3Family) New(i int) Hasher {
	return NewMurmur3(f.base + uint32(i)*0x61c88647 + 1)
}

// ---------------------------------------------------------------------------
// XX64: an xxHash64-style hash for fast 64-bit hashing of short keys.
// ---------------------------------------------------------------------------

// XX64 is a seeded 64-bit hash in the style of xxHash64.
type XX64 struct {
	seed uint64
}

// NewXX64 returns an XX64 hasher with the given seed.
func NewXX64(seed uint64) *XX64 { return &XX64{seed: seed} }

const (
	xxPrime1 = 0x9e3779b185ebca87
	xxPrime2 = 0xc2b2ae3d27d4eb4f
	xxPrime3 = 0x165667b19e3779f9
	xxPrime4 = 0x85ebca77c2b2ae63
	xxPrime5 = 0x27d4eb2f165667c5
)

func rot64(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

func xxRound(acc, input uint64) uint64 {
	acc += input * xxPrime2
	acc = rot64(acc, 31)
	acc *= xxPrime1
	return acc
}

func xxMerge(acc, val uint64) uint64 {
	val = xxRound(0, val)
	acc ^= val
	acc = acc*xxPrime1 + xxPrime4
	return acc
}

// Hash implements Hasher.
func (x *XX64) Hash(key []byte) uint64 {
	n := len(key)
	var h uint64
	i := 0
	if n >= 32 {
		v1 := x.seed + xxPrime1 + xxPrime2
		v2 := x.seed + xxPrime2
		v3 := x.seed
		v4 := x.seed - xxPrime1
		for ; i+32 <= n; i += 32 {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(key[i:]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(key[i+8:]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(key[i+16:]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(key[i+24:]))
		}
		h = rot64(v1, 1) + rot64(v2, 7) + rot64(v3, 12) + rot64(v4, 18)
		h = xxMerge(h, v1)
		h = xxMerge(h, v2)
		h = xxMerge(h, v3)
		h = xxMerge(h, v4)
	} else {
		h = x.seed + xxPrime5
	}
	h += uint64(n)
	for ; i+8 <= n; i += 8 {
		h ^= xxRound(0, binary.LittleEndian.Uint64(key[i:]))
		h = rot64(h, 27)*xxPrime1 + xxPrime4
	}
	if i+4 <= n {
		h ^= uint64(binary.LittleEndian.Uint32(key[i:])) * xxPrime1
		h = rot64(h, 23)*xxPrime2 + xxPrime3
		i += 4
	}
	for ; i < n; i++ {
		h ^= uint64(key[i]) * xxPrime5
		h = rot64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// XX64Family is a Family of XX64 functions.
type XX64Family struct{ base uint64 }

// NewXX64Family returns an XX64 Family with the given base seed.
func NewXX64Family(base uint64) *XX64Family { return &XX64Family{base: base} }

// New implements Family.
func (f *XX64Family) New(i int) Hasher {
	return NewXX64(f.base ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
}

// ---------------------------------------------------------------------------
// MultiplyShift: a 2-universal (pairwise independent) family over fixed
// 64-bit keys, used by the theoretical-bound property tests (Thm 5.1).
// ---------------------------------------------------------------------------

// MultiplyShift hashes 64-bit keys with h(x) = (a*x + b) >> s, a classic
// pairwise-independent construction. Keys shorter than 8 bytes are
// zero-extended; longer keys are folded with XX64 first.
type MultiplyShift struct {
	a, b uint64
	fold *XX64
}

// NewMultiplyShift returns a MultiplyShift hasher. a must be odd; the
// constructor forces the low bit.
func NewMultiplyShift(a, b uint64) *MultiplyShift {
	return &MultiplyShift{a: a | 1, b: b, fold: NewXX64(a ^ b)}
}

// Hash implements Hasher.
func (m *MultiplyShift) Hash(key []byte) uint64 {
	var x uint64
	switch {
	case len(key) == 8:
		x = binary.LittleEndian.Uint64(key)
	case len(key) < 8:
		var buf [8]byte
		copy(buf[:], key)
		x = binary.LittleEndian.Uint64(buf[:])
	default:
		x = m.fold.Hash(key)
	}
	return m.a*x + m.b
}

// MultiplyShiftFamily is a Family of MultiplyShift functions seeded from a
// splitmix64 stream.
type MultiplyShiftFamily struct{ base uint64 }

// NewMultiplyShiftFamily returns a pairwise-independent family.
func NewMultiplyShiftFamily(base uint64) *MultiplyShiftFamily {
	return &MultiplyShiftFamily{base: base}
}

// New implements Family.
func (f *MultiplyShiftFamily) New(i int) Hasher {
	s := f.base + uint64(i)*2
	return NewMultiplyShift(splitmix64(&s), splitmix64(&s))
}

// splitmix64 advances the state and returns the next pseudo-random value.
// It is the standard seeding generator from Vigna's splitmix64.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Splitmix64 exposes the splitmix64 step for packages that need cheap
// deterministic seeding (trace generation, experiment harness).
func Splitmix64(state *uint64) uint64 { return splitmix64(state) }

// Reduce maps a 64-bit hash onto [0, n) without modulo bias using the
// fixed-point multiply trick. n must be > 0.
func Reduce(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}
