package engine

import (
	"strings"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
)

// TestMergeShardRefusesMismatch pins that MergeShard surfaces the core
// merge refusals — geometry and hash-mode mismatches — instead of
// swallowing them, and that a refused merge leaves the shard's registers
// untouched.
func TestMergeShardRefusesMismatch(t *testing.T) {
	e, err := New(Config{Shards: 2, Sketch: withSeed(geometries[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	e.Update(key(7), 3)

	mk := func(mut func(*core.Config)) *core.Sketch {
		cfg := geometries[0]
		cfg.Hash = hashing.NewBobFamily(0xfc3141 ^ 1)
		mut(&cfg)
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before, _ := e.Snapshot()

	cases := []struct {
		name string
		o    *core.Sketch
		want string
	}{
		{"geometry", mk(func(c *core.Config) { c.LeafWidth = 256 }), "geometry mismatch"},
		{"hash mode", mk(func(c *core.Config) { c.PerTreeHash = true }), "hash-mode mismatch"},
		{"hash seed", mk(func(c *core.Config) { c.Hash = hashing.NewBobFamily(99) }), "hash-seed mismatch"},
	}
	for _, tc := range cases {
		err := e.MergeShard(0, tc.o, 0)
		if err == nil {
			t.Fatalf("%s: MergeShard accepted a mismatched sketch", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	after, _ := e.Snapshot()
	registersEqual(t, before, after)
}
