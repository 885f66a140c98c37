package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mergeConfig builds small sketches that overflow readily, so merges
// exercise every carry path.
func mergeConfig() Config {
	return Config{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}}
}

func TestMergeEqualsConcatenatedStream(t *testing.T) {
	// The headline property: merge(sketch(A), sketch(B)) is bit-identical
	// to sketch(A ++ B), for random streams that heavily overflow.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		a, err := New(mergeConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(mergeConfig())
		if err != nil {
			t.Fatal(err)
		}
		both, err := New(mergeConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			key := k8(uint64(rng.Intn(40)))
			inc := uint64(1 + rng.Intn(20))
			if rng.Intn(2) == 0 {
				a.Update(key, inc)
			} else {
				b.Update(key, inc)
			}
			both.Update(key, inc)
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if d := a.FirstRegisterDiff(both); d != "" {
			t.Fatalf("trial %d: merged state differs: %s", trial, d)
		}
	}
}

func TestMergeQuick(t *testing.T) {
	f := func(split []bool, ids []uint8, incs []uint8) bool {
		a, _ := New(mergeConfig())
		b, _ := New(mergeConfig())
		both, _ := New(mergeConfig())
		n := len(split)
		if len(ids) < n {
			n = len(ids)
		}
		if len(incs) < n {
			n = len(incs)
		}
		for i := 0; i < n; i++ {
			key := k8(uint64(ids[i] % 32))
			inc := uint64(incs[i]%15) + 1
			if split[i] {
				a.Update(key, inc)
			} else {
				b.Update(key, inc)
			}
			both.Update(key, inc)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		return a.EqualRegisters(both)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeDefaultWidths(t *testing.T) {
	// Same property at the paper's production widths with elephants that
	// punch through all three stages.
	cfg := Config{K: 8, Trees: 2, LeafWidth: 64}
	a, _ := New(cfg)
	b, _ := New(cfg)
	both, _ := New(cfg)
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 200; i++ {
		key := k8(uint64(rng.Intn(30)))
		inc := uint64(1 + rng.Intn(100000))
		if i%2 == 0 {
			a.Update(key, inc)
		} else {
			b.Update(key, inc)
		}
		both.Update(key, inc)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if d := a.FirstRegisterDiff(both); d != "" {
		t.Fatalf("merged state differs: %s", d)
	}
	// Queries agree too.
	for id := uint64(0); id < 30; id++ {
		if a.Estimate(k8(id)) != both.Estimate(k8(id)) {
			t.Fatalf("estimate differs for flow %d", id)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	a, _ := New(mergeConfig())
	b, _ := New(mergeConfig())
	a.Update(k8(1), 99)
	want := a.Estimate(k8(1))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Estimate(k8(1)); got != want {
		t.Errorf("merging an empty sketch changed the estimate: %d vs %d", got, want)
	}
}

func TestMergeIncompatible(t *testing.T) {
	base, _ := New(mergeConfig())
	cases := map[string]Config{
		"arity":  {K: 4, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}},
		"width":  {K: 2, Trees: 2, LeafWidth: 32, Widths: []int{3, 5, 8}},
		"trees":  {K: 2, Trees: 1, LeafWidth: 16, Widths: []int{3, 5, 8}},
		"stages": {K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 8}},
		"bits":   {K: 2, Trees: 2, LeafWidth: 16, Widths: []int{4, 5, 8}},
	}
	for name, cfg := range cases {
		o, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := base.Merge(o); err == nil {
			t.Errorf("%s: expected incompatibility error", name)
		}
	}
	if err := base.Merge(nil); err == nil {
		t.Error("nil: expected error")
	}
	// Flag-bit encoding differs from marker encoding.
	fb, _ := New(Config{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}, FlagBitIndicator: true})
	if err := base.Merge(fb); err == nil {
		t.Error("flag-bit: expected encoding mismatch error")
	}
}

func TestMergePreservesTotalCount(t *testing.T) {
	// A 20-bit root cannot saturate at this stream size, so the merged
	// trees must preserve the exact packet total.
	cfg := Config{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 20}}
	a, _ := New(cfg)
	b, _ := New(cfg)
	rng := rand.New(rand.NewSource(33))
	var total uint64
	for i := 0; i < 500; i++ {
		inc := uint64(1 + rng.Intn(5))
		key := k8(uint64(rng.Intn(64)))
		if i%2 == 0 {
			a.Update(key, inc)
		} else {
			b.Update(key, inc)
		}
		total += inc
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for tr := 0; tr < a.NumTrees(); tr++ {
		if got := a.TotalCount(tr); got != total {
			t.Errorf("tree %d: merged total %d want %d", tr, got, total)
		}
	}
}
