package hashing

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func hashers(t *testing.T) map[string]Hasher {
	t.Helper()
	return map[string]Hasher{
		"bob":     NewBob(12345),
		"murmur3": NewMurmur3(12345),
		"xx64":    NewXX64(12345),
		"ms":      NewMultiplyShift(0x243f6a8885a308d3, 0x13198a2e03707344),
	}
}

func TestDeterministic(t *testing.T) {
	key := []byte("192.168.0.1->10.0.0.1:443")
	for name, h := range hashers(t) {
		a, b := h.Hash(key), h.Hash(key)
		if a != b {
			t.Errorf("%s: hash not deterministic: %x vs %x", name, a, b)
		}
	}
}

func TestSeedIndependence(t *testing.T) {
	key := []byte("flowkey")
	pairs := map[string][2]Hasher{
		"bob":     {NewBob(1), NewBob(2)},
		"murmur3": {NewMurmur3(1), NewMurmur3(2)},
		"xx64":    {NewXX64(1), NewXX64(2)},
	}
	for name, p := range pairs {
		if p[0].Hash(key) == p[1].Hash(key) {
			t.Errorf("%s: different seeds produced identical hash", name)
		}
	}
}

func TestAllLengths(t *testing.T) {
	// Exercise every tail length of every hash: 0..40 bytes.
	buf := make([]byte, 40)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	for name, h := range hashers(t) {
		seen := make(map[uint64][]int)
		for n := 0; n <= len(buf); n++ {
			v := h.Hash(buf[:n])
			seen[v] = append(seen[v], n)
		}
		for v, ns := range seen {
			if len(ns) > 1 {
				t.Errorf("%s: lengths %v collided on %x", name, ns, v)
			}
		}
	}
}

func TestTailBytesMatter(t *testing.T) {
	// Changing any single byte must change the hash (overwhelmingly).
	base := make([]byte, 13) // forces the lookup3 tail path
	for name, h := range hashers(t) {
		if name == "ms" {
			continue // folds long keys; covered by xx64
		}
		orig := h.Hash(base)
		for i := range base {
			mod := make([]byte, len(base))
			copy(mod, base)
			mod[i] = 0xff
			if h.Hash(mod) == orig {
				t.Errorf("%s: flipping byte %d did not change hash", name, i)
			}
		}
	}
}

func TestUniformity(t *testing.T) {
	// Hash 1<<16 sequential keys into 64 buckets; chi-squared should be
	// comfortably below a loose threshold for a usable hash.
	const keys = 1 << 16
	const buckets = 64
	for name, h := range hashers(t) {
		var counts [buckets]int
		var k [8]byte
		for i := 0; i < keys; i++ {
			binary.LittleEndian.PutUint64(k[:], uint64(i))
			counts[Reduce(h.Hash(k[:]), buckets)]++
		}
		expected := float64(keys) / buckets
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// 63 degrees of freedom; mean 63, stddev ~11.2. 200 is far out in
		// the tail and catches only broken hashes.
		if chi2 > 200 {
			t.Errorf("%s: chi-squared %f too high, distribution is not uniform", name, chi2)
		}
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	for name, h := range hashers(t) {
		if name == "ms" {
			continue // multiply-shift is only pairwise independent
		}
		var total, flips float64
		var k [8]byte
		for trial := 0; trial < 64; trial++ {
			binary.LittleEndian.PutUint64(k[:], uint64(trial)*0x9e3779b97f4a7c15+1)
			base := h.Hash(k[:])
			for bit := 0; bit < 64; bit++ {
				mod := k
				mod[bit/8] ^= 1 << (bit % 8)
				diff := base ^ h.Hash(mod[:])
				for d := diff; d != 0; d &= d - 1 {
					flips++
				}
				total += 64
			}
		}
		ratio := flips / total
		if math.Abs(ratio-0.5) > 0.05 {
			t.Errorf("%s: avalanche ratio %f, want ~0.5", name, ratio)
		}
	}
}

func TestFamilyIndependence(t *testing.T) {
	families := map[string]Family{
		"bob":     NewBobFamily(7),
		"murmur3": NewMurmur3Family(7),
		"xx64":    NewXX64Family(7),
		"ms":      NewMultiplyShiftFamily(7),
	}
	key := []byte("10.1.2.3")
	for name, f := range families {
		seen := make(map[uint64]int)
		for i := 0; i < 16; i++ {
			v := f.New(i).Hash(key)
			if j, ok := seen[v]; ok {
				t.Errorf("%s: family members %d and %d agree on %x", name, i, j, v)
			}
			seen[v] = i
		}
	}
}

func TestPairwiseIndependenceEmpirical(t *testing.T) {
	// For the multiply-shift family, Pr[h(x)=h(y) into m buckets] should
	// be close to 1/m for x != y, averaged over the family.
	const m = 256
	const trials = 4000
	f := NewMultiplyShiftFamily(99)
	x := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	y := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	coll := 0
	for i := 0; i < trials; i++ {
		h := f.New(i)
		if Reduce(h.Hash(x), m) == Reduce(h.Hash(y), m) {
			coll++
		}
	}
	p := float64(coll) / trials
	if p > 3.0/m {
		t.Errorf("collision probability %f exceeds 3/m = %f", p, 3.0/m)
	}
}

func TestReduceRange(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 1 << 20} {
		n := n
		err := quick.Check(func(h uint64) bool {
			r := Reduce(h, n)
			return r >= 0 && r < n
		}, cfg)
		if err != nil {
			t.Errorf("Reduce out of range for n=%d: %v", n, err)
		}
	}
}

func TestReduceCoversAllBuckets(t *testing.T) {
	const n = 16
	seen := make(map[int]bool)
	h := NewXX64(3)
	var k [8]byte
	for i := 0; i < 10000 && len(seen) < n; i++ {
		binary.LittleEndian.PutUint64(k[:], uint64(i))
		seen[Reduce(h.Hash(k[:]), n)] = true
	}
	if len(seen) != n {
		t.Errorf("Reduce reached only %d of %d buckets", len(seen), n)
	}
}

func TestReduceMatchesWideMultiply(t *testing.T) {
	// Reduce(h, n) is ⌊h·n/2⁶⁴⌋; check against a big.Int reference.
	cases := []struct {
		h uint64
		n int
	}{
		{0, 1}, {1, 1}, {math.MaxUint64, 7}, {math.MaxUint64, 1 << 20},
		{0x9e3779b97f4a7c15, 1000}, {1 << 63, 2}, {1<<63 - 1, 3},
	}
	shift := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, c := range cases {
		ref := new(big.Int).SetUint64(c.h)
		ref.Mul(ref, big.NewInt(int64(c.n))).Div(ref, shift)
		if got := Reduce(c.h, c.n); int64(got) != ref.Int64() {
			t.Errorf("Reduce(%x, %d) = %d, want %d", c.h, c.n, got, ref.Int64())
		}
	}
}

func TestSplitmix64Stream(t *testing.T) {
	// Known-answer test from the splitmix64 reference with seed 0.
	s := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := splitmix64(&s); got != w {
			t.Fatalf("splitmix64 step %d = %x, want %x", i, got, w)
		}
	}
}

func BenchmarkBob8(b *testing.B)  { benchHash(b, NewBob(1), 8) }
func BenchmarkBob13(b *testing.B) { benchHash(b, NewBob(1), 13) }
func BenchmarkMurmur8(b *testing.B) {
	benchHash(b, NewMurmur3(1), 8)
}
func BenchmarkXX8(b *testing.B) { benchHash(b, NewXX64(1), 8) }

func benchHash(b *testing.B, h Hasher, n int) {
	key := make([]byte, n)
	b.SetBytes(int64(n))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		sink ^= h.Hash(key)
	}
	_ = sink
}

// TestDataPlaneFamilyPinned pins the seed→family rule every FCM sketch
// shares: a collection tier restoring a deployed switch's registers must
// hash keys exactly as the switch did, so the derivation may never drift.
func TestDataPlaneFamilyPinned(t *testing.T) {
	key := []byte("10.0.0.1:443")
	for _, c := range []struct {
		seed uint32
		want uint64
	}{
		{0, 0x34fa96f0a9935609},
		{77, 0x867112625949715d},
	} {
		if got := DataPlaneFamily(c.seed).New(0).Hash(key); got != c.want {
			t.Errorf("DataPlaneFamily(%d) member 0 hashes %q to %#x, want %#x", c.seed, key, got, c.want)
		}
	}
}
