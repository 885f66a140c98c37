// End-to-end integration tests: trace generation → pcap on disk → parse →
// public API → metrics against exact ground truth, plus the TCP
// collection path from a live sketch to a control-plane EM run.
package fcm_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/exact"
	"github.com/fcmsketch/fcm/internal/metrics"
	"github.com/fcmsketch/fcm/internal/packet"
	"github.com/fcmsketch/fcm/internal/trace"
)

func TestEndToEndPcapPipeline(t *testing.T) {
	// Generate a CAIDA-like trace and persist it as a real pcap file.
	tr, err := trace.CAIDALike(120_000, 21)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "e2e.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePcap(f, 0, 15e9); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Read it back through the parsing path.
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, skipped, err := trace.ReadPcap(f, packet.KeySrcIP)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d frames skipped", skipped)
	}
	if loaded.NumPackets() != tr.NumPackets() {
		t.Fatalf("packets %d want %d", loaded.NumPackets(), tr.NumPackets())
	}

	// Feed the framework and score against exact ground truth.
	fw, err := fcm.NewFramework(fcm.Config{MemoryBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	truth := exact.New()
	loaded.ForEachPacket(func(id int, key []byte) {
		fw.Update(key, 1)
		truth.UpdateKey(loaded.Keys[id], 1)
	})

	// Flow-size ARE must be modest at this memory.
	var tv, ev []float64
	for i, k := range loaded.Keys {
		tv = append(tv, float64(loaded.Sizes[i]))
		ev = append(ev, float64(fw.Estimate(k.Bytes())))
	}
	if are := metrics.ARE(tv, ev); are > 1.5 {
		t.Errorf("end-to-end ARE %f too high", are)
	}
	// Cardinality within 5%.
	if re := metrics.RE(float64(truth.Cardinality()), fw.Cardinality()); re > 0.05 {
		t.Errorf("cardinality RE %f", re)
	}
	// Entropy via EM within 10%.
	h, err := fw.Entropy(&fcm.EMOptions{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if re := metrics.RE(truth.Entropy(), h); re > 0.1 {
		t.Errorf("entropy RE %f (est %f true %f)", re, h, truth.Entropy())
	}
}

func TestEndToEndCollection(t *testing.T) {
	// Live sketch served over TCP; controller collects and runs EM.
	sk, err := fcm.NewSketch(fcm.Config{MemoryBytes: 32 << 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.CAIDALike(60_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	ls := collect.NewLockedSketch(sk.Core())
	srv, err := collect.NewServer("127.0.0.1:0", ls)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tr.ForEachPacket(func(_ int, key []byte) {
		ls.Lock()
		sk.Update(key, 1)
		ls.Unlock()
	})

	cl, err := collect.NewClient(collect.ClientConfig{Addr: srv.Addr(), DialTimeout: time.Second, IOTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	snap, err := cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}

	// Control-plane cardinality from the snapshot matches the live one.
	restored, err := snap.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(restored.Cardinality()-sk.Cardinality()) > 1e-9 {
		t.Errorf("snapshot cardinality %f vs live %f", restored.Cardinality(), sk.Cardinality())
	}

	// FSD WMRE from the collected snapshot is as good as from the live
	// sketch (they are the same registers).
	liveDist, err := sk.FlowSizeDistribution(&fcm.EMOptions{Iterations: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	vcs, err := snap.VirtualCounters()
	if err != nil {
		t.Fatal(err)
	}
	if len(vcs) != 2 {
		t.Fatalf("trees %d", len(vcs))
	}
	truthDist := make([]float64, tr.MaxSize()+1)
	for _, s := range tr.Sizes {
		truthDist[s]++
	}
	if w := metrics.WMRE(truthDist, liveDist); w > 0.6 {
		t.Errorf("live WMRE %f", w)
	}
}

func TestFrameworkMultiWindowE2E(t *testing.T) {
	fw, err := fcm.NewFramework(fcm.Config{MemoryBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.CAIDALike(80_000, 13)
	if err != nil {
		t.Fatal(err)
	}
	windows := tr.Windows(4)
	truthPrev, truthCur := exact.New(), exact.New()
	for w, win := range windows {
		if w > 0 {
			fw.Rotate()
			truthPrev, truthCur = truthCur, exact.New()
		}
		win.ForEachPacket(func(id int, key []byte) {
			fw.Update(key, 1)
			truthCur.UpdateKey(win.Keys[id], 1)
		})
	}
	// Heavy changes between windows 3 and 4 against exact computation:
	// every exact heavy change must be detected (estimates only
	// overestimate, so recall is guaranteed modulo threshold noise).
	const thr = 60
	exactHC := exact.HeavyChanges(truthPrev, truthCur, thr)
	candidates := make([][]byte, 0, tr.NumFlows())
	for i := range tr.Keys {
		candidates = append(candidates, tr.Keys[i].Bytes())
	}
	got, err := fw.HeavyChanges(candidates, thr)
	if err != nil {
		t.Fatal(err)
	}
	gotSet := map[string]bool{}
	for _, c := range got {
		gotSet[c.Key] = true
	}
	missed := 0
	for k := range exactHC {
		if !gotSet[string(k.Bytes())] {
			missed++
		}
	}
	if len(exactHC) == 0 {
		t.Skip("no exact heavy changes at this threshold; trace too uniform")
	}
	if frac := float64(missed) / float64(len(exactHC)); frac > 0.2 {
		t.Errorf("missed %d/%d exact heavy changes", missed, len(exactHC))
	}
}
