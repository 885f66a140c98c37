package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/fcmsketch/fcm/internal/pisa"
	"github.com/fcmsketch/fcm/internal/trace"
)

func TestLoadTraceSynthetic(t *testing.T) {
	tr, err := loadTrace("", 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPackets() < 9000 {
		t.Errorf("packets %d", tr.NumPackets())
	}
}

func TestLoadTracePcap(t *testing.T) {
	src, err := trace.CAIDALike(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WritePcap(f, 0, 1e9); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tr, err := loadTrace(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPackets() != src.NumPackets() {
		t.Errorf("packets %d want %d", tr.NumPackets(), src.NumPackets())
	}
	if _, err := loadTrace(filepath.Join(t.TempDir(), "missing"), 0, 0); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestPrintAllocation(t *testing.T) {
	sw, err := pisa.NewSwitch(pisa.SwitchConfig{Program: pisa.ProgramFCM, MemoryBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	// printAllocation writes to stdout; just make sure it doesn't panic
	// and the allocation is sane.
	if sw.Allocation().NumStages() != 4 {
		t.Errorf("stages %d", sw.Allocation().NumStages())
	}
	printAllocation(sw.Allocation())
}

// TestReplayShardedMatchesSerial: the batched sharded replay, each writer
// on a contiguous slice of the trace, merges to registers bit-identical to
// the switch's own sketch fed every packet serially.
func TestReplayShardedMatchesSerial(t *testing.T) {
	tr, err := trace.CAIDALike(20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 4} {
		sw, err := pisa.NewSwitch(pisa.SwitchConfig{Program: pisa.ProgramFCM, MemoryBytes: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := shardedEngine(sw, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		replaySharded(tr, eng)
		tr.ForEachPacket(func(_ int, key []byte) { sw.Update(key, 1) })
		if got, want := eng.Generation(), uint64(tr.NumPackets()); got != want {
			t.Fatalf("shards %d: engine absorbed %d updates, want %d", shards, got, want)
		}
		if d := sw.Sketch().FirstRegisterDiff(eng.SnapshotSketch()); d != "" {
			t.Fatalf("shards %d: sharded replay differs from serial: %s", shards, d)
		}
	}
}
