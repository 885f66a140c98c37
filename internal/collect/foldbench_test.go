package collect

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/trace"
)

// fleetSize matches the aggregator fleet scenario (PR 7): one export
// window folds this many member sketches into the aggregate.
const fleetSize = 208

// benchFleet builds fleetSize member sketches of the paper's stage layout
// (K=8, {8,16,32}) at 4096 leaves × 2 trees — 10,752 bytes each, not the
// 1 MiB default geometry — each loaded with its own skewed slice of
// traffic, plus an empty accumulator of the same shape.
func benchFleet(b *testing.B) (acc *core.Sketch, members []*core.Sketch) {
	b.Helper()
	cfg := core.Config{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}}
	mk := func() *core.Sketch {
		s, err := core.New(cfg)
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		return s
	}
	acc = mk()
	rng := rand.New(rand.NewSource(99))
	key := make([]byte, 4)
	for m := 0; m < fleetSize; m++ {
		sk := mk()
		for i := 0; i < 2000; i++ {
			k := uint32(rng.ExpFloat64() * 700)
			key[0], key[1], key[2], key[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
			sk.Update(key, 1)
		}
		members = append(members, sk)
	}
	return acc, members
}

// BenchmarkAbsorbFleet is the aggregator's per-window fold: one empty
// accumulator absorbing all fleet members, the shape Aggregator runs on
// every export (aggregator.go). One op = one full 208-member fold.
func BenchmarkAbsorbFleet(b *testing.B) {
	acc, members := benchFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, m := range members {
			if err := acc.Merge(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSnapshots builds a baseline snapshot plus a copy with a small
// fraction of registers changed — the steady-state shape the per-poll
// delta diff sees between scrapes.
func benchSnapshots(b *testing.B) (base, cur *Snapshot) {
	b.Helper()
	sk, err := core.New(core.Config{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	key := make([]byte, 4)
	for i := 0; i < 50000; i++ {
		k := uint32(rng.ExpFloat64() * 700)
		key[0], key[1], key[2], key[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		sk.Update(key, 1)
	}
	base = TakeSnapshot(sk)
	for i := 0; i < 200; i++ { // ~0.5% of leaves move between polls
		k := rng.Uint32()
		key[0], key[1], key[2], key[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		sk.Update(key, 1)
	}
	cur = TakeSnapshot(sk)
	return base, cur
}

// paperSnapshots returns the two states one switch serves on consecutive
// polls at the default 1 MiB geometry (K=8, two trees, {8,16,32}): two
// reset windows of 256 Ki skewed packets each, cut from a 2 Mi-packet
// CAIDA-like trace (Zipf α = 1, seed 1) as windows 0 and 2 — what one of
// two switches ingests in consecutive collection rounds — so cur differs
// from base wherever either window touched a register. The trace takes
// seconds to generate, so the pair is built once per test binary.
func paperSnapshots(b *testing.B) (base, cur *Snapshot) {
	b.Helper()
	sks, err := paperSketchPair()
	if err != nil {
		b.Fatal(err)
	}
	return TakeSnapshot(sks[0]), TakeSnapshot(sks[1])
}

// paperConfig is the default 1 MiB sketch geometry.
var paperConfig = core.Config{K: 8, Trees: 2, MemoryBytes: 1 << 20, Widths: core.DefaultWidths(),
	Hash: hashing.DataPlaneFamily(0)}

// paperSketchPair holds the two windows paperSnapshots snapshots.
var paperSketchPair = sync.OnceValues(func() ([2]*core.Sketch, error) {
	const window = 1 << 18
	var sks [2]*core.Sketch
	tr, err := trace.CAIDALike(8*window, 1)
	if err != nil {
		return sks, err
	}
	for i := range sks {
		sk, err := core.New(paperConfig)
		if err != nil {
			return sks, err
		}
		for _, id := range tr.Order[2*i*window : (2*i+1)*window] {
			sk.Update(tr.Keys[id].Bytes(), 1)
		}
		sks[i] = sk
	}
	return sks, nil
})

// BenchmarkDiffSnapshots times the per-poll diff: "small" is a 10 KiB
// sketch with about 0.5% of its leaves moved, "paper" the default 1 MiB
// geometry across two reset windows. bodyB/op is the encoded size of the
// blocks the diff reports.
func BenchmarkDiffSnapshots(b *testing.B) {
	for _, c := range []struct {
		name string
		make func(*testing.B) (*Snapshot, *Snapshot)
	}{{"small", benchSnapshots}, {"paper", paperSnapshots}} {
		b.Run(c.name, func(b *testing.B) {
			base, cur := c.make(b)
			body := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blocks, ok := DiffSnapshots(base, cur)
				if !ok {
					b.Fatal("geometry mismatch")
				}
				body = 0
				for _, blk := range blocks {
					body += len(blk.Body)
				}
			}
			b.ReportMetric(float64(body), "bodyB/op")
		})
	}
}

func BenchmarkStateCRC(b *testing.B) {
	_, cur := benchSnapshots(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cur.StateCRC()
	}
}

// TestDeltaAppendEncodeMatchesEncode pins AppendEncode (both frame kinds)
// byte-identical to Encode and alloc-free into a warm buffer.
func TestDeltaAppendEncodeMatchesEncode(t *testing.T) {
	base, cur := func() (*Snapshot, *Snapshot) {
		sk, err := core.New(core.Config{K: 2, Trees: 2, LeafWidth: 64, Widths: []int{4, 8, 16}})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		key := make([]byte, 4)
		for i := 0; i < 5000; i++ {
			key[0], key[1] = byte(i), byte(i>>8)
			sk.Update(key, 1)
		}
		b := TakeSnapshot(sk)
		for i := 0; i < 64; i++ {
			key[0], key[1] = byte(i*3), 0x80
			sk.Update(key, 1)
		}
		return b, TakeSnapshot(sk)
	}()
	blocks, ok := DiffSnapshots(base, cur)
	if !ok {
		t.Fatal("geometry mismatch")
	}
	if len(blocks) == 0 {
		t.Fatal("expected a nonempty delta")
	}
	frames := []*DeltaFrame{
		{BaseGen: 3, NewGen: 4, StateCRC: cur.StateCRC(), Blocks: blocks},
		{Full: true, NewGen: 4, StateCRC: cur.StateCRC(), Snap: cur},
	}
	for fi, f := range frames {
		want, err := f.Encode()
		if err != nil {
			t.Fatalf("frame %d Encode: %v", fi, err)
		}
		buf := make([]byte, 0, len(want))
		got, err := f.AppendEncode(buf)
		if err != nil {
			t.Fatalf("frame %d AppendEncode: %v", fi, err)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %d AppendEncode bytes differ from Encode", fi)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := f.AppendEncode(buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("frame %d AppendEncode allocates %.1f objects/op into a sized buffer, want 0", fi, n)
		}
	}
}

// TestTakeSnapshotIntoAllocs pins the per-poll read-out alloc-free: a
// snapshot taken into a reused one copies every stage into the buffers it
// already holds, and the state CRC over it allocates nothing either.
func TestTakeSnapshotIntoAllocs(t *testing.T) {
	sk, err := core.New(core.Config{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	key := make([]byte, 4)
	for i := 0; i < 20000; i++ {
		key[0], key[1] = byte(i), byte(i>>8)
		sk.Update(key, 1)
	}
	snap := TakeSnapshot(sk)
	want := snap.StateCRC()
	if n := testing.AllocsPerRun(20, func() {
		if TakeSnapshotInto(snap, sk) != snap {
			t.Fatal("TakeSnapshotInto returned another snapshot")
		}
	}); n != 0 {
		t.Fatalf("TakeSnapshotInto a reused snapshot allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = snap.StateCRC() }); n != 0 {
		t.Fatalf("StateCRC allocates %.1f objects/op, want 0", n)
	}
	if got := snap.StateCRC(); got != want {
		t.Fatalf("reused snapshot state CRC 0x%08x, fresh 0x%08x", got, want)
	}
}
