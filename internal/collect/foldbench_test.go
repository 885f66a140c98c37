package collect

import (
	"math/rand"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
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

func BenchmarkDiffSnapshots(b *testing.B) {
	base, cur := benchSnapshots(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := DiffSnapshots(base, cur); !ok {
			b.Fatal("geometry mismatch")
		}
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

// TestServeEncodeAllocs pins the serve path's encode side alloc-free:
// after the first poll has sized the connection scratch, snapshotting
// into it and encoding the response performs zero allocations. (The
// Source's copy-on-read Clone is outside the pin — handing ownership of
// a fresh copy is the Source contract.)
func TestServeEncodeAllocs(t *testing.T) {
	sk, err := core.New(core.Config{K: 8, Trees: 2, LeafWidth: 512, Widths: []int{8, 16, 32}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	key := make([]byte, 4)
	for i := 0; i < 20000; i++ {
		k := rng.Uint32() % 4096
		key[0], key[1], key[2], key[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		sk.Update(key, 1)
	}
	var scr connScratch
	encodeOnce := func() {
		scr.snap = TakeSnapshotInto(scr.snap, sk)
		scr.resp = append(scr.resp[:0], statusOK)
		resp, err := scr.snap.AppendEncode(scr.resp)
		if err != nil {
			t.Fatalf("AppendEncode: %v", err)
		}
		scr.resp = resp
	}
	encodeOnce() // warm-up sizes the scratch
	want, err := TakeSnapshot(sk).Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if string(scr.resp[1:]) != string(want) {
		t.Fatal("scratch encode differs from reference Encode bytes")
	}
	if n := testing.AllocsPerRun(20, encodeOnce); n != 0 {
		t.Fatalf("serve encode allocates %.1f objects/op after warm-up, want 0", n)
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
