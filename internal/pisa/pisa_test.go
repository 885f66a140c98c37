package pisa

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
)

func k(i uint64) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(i))
	return b[:]
}

func fcmGeom() FCMGeometry {
	return FCMGeometry{
		Trees:     2,
		K:         8,
		LeafWidth: 524288, // ~1.3MB at 8/16/32 bits
		Widths:    []int{8, 16, 32},
	}
}

func TestCompileFCMStages(t *testing.T) {
	a, err := CompileFCM(fcmGeom(), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	// Table 4: FCM-Sketch occupies 4 physical stages.
	if a.NumStages() != 4 {
		t.Errorf("FCM stages = %d, want 4", a.NumStages())
	}
	// 2 trees × 3 levels = 6 stateful ALUs = 12.5% of 48 (Table 4).
	u := a.Utilization()
	if math.Abs(u["StatefulALUs"]-0.125) > 1e-9 {
		t.Errorf("sALU utilization %f, want 0.125", u["StatefulALUs"])
	}
	// SRAM ~9% for the 1.3MB configuration (paper: 9.38%).
	if u["SRAM"] < 0.06 || u["SRAM"] > 0.12 {
		t.Errorf("SRAM utilization %f, want ~0.09", u["SRAM"])
	}
	// No TCAM without the cardinality table.
	if u["TCAM"] != 0 {
		t.Errorf("TCAM utilization %f without cardinality", u["TCAM"])
	}
}

func TestCompileFCMWithCardinality(t *testing.T) {
	g := fcmGeom()
	g.Cardinality = true
	g.TCAMEntries = 2000
	a, err := CompileFCM(g, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	u := a.Utilization()
	if u["TCAM"] == 0 {
		t.Error("cardinality table allocated no TCAM")
	}
	// §8.3: cardinality adds stateful ALUs (paper: +10.42%).
	if math.Abs(u["StatefulALUs"]-0.125-float64(g.Trees+1)/48) > 1e-9 {
		t.Errorf("sALU utilization with cardinality %f", u["StatefulALUs"])
	}
}

func TestCompileFCMTopKStages(t *testing.T) {
	a, err := CompileFCMTopK(fcmGeom(), TopKGeometry{Entries: 16384}, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	// Table 4: FCM+TopK occupies 8 physical stages.
	if a.NumStages() != 8 {
		t.Errorf("FCM+TopK stages = %d, want 8", a.NumStages())
	}
	// 6 FCM + 4 filter sALUs = 10/48 = 20.83% (Table 4).
	u := a.Utilization()
	if math.Abs(u["StatefulALUs"]-10.0/48) > 1e-9 {
		t.Errorf("sALU utilization %f, want %f", u["StatefulALUs"], 10.0/48)
	}
}

func TestCompileCMTopK(t *testing.T) {
	// §8.2.2: ~1.3MB split over d rows of 8-bit registers.
	for _, rows := range []int{2, 4, 8} {
		a, err := CompileCMTopK(
			CMGeometry{Rows: rows, Width: 1300000 / rows, Bits: 8},
			TopKGeometry{Entries: 16384}, DefaultLimits())
		if err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
		if a.NumStages() < 6 || a.NumStages() > DefaultLimits().Stages {
			t.Errorf("CM(%d)+TopK stages = %d out of range", rows, a.NumStages())
		}
		if got := a.Totals().SALUs; got != rows+4 {
			t.Errorf("CM(%d)+TopK sALUs = %d, want %d", rows, got, rows+4)
		}
	}
	// A single row too wide for one stage must be rejected.
	if _, err := CompileCMTopK(
		CMGeometry{Rows: 1, Width: 4 << 20, Bits: 8},
		TopKGeometry{Entries: 16}, DefaultLimits()); err == nil {
		t.Error("expected oversize-row error")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileFCM(FCMGeometry{}, DefaultLimits()); err == nil {
		t.Error("expected geometry error")
	}
	if _, err := CompileCMTopK(CMGeometry{}, TopKGeometry{Entries: 16}, DefaultLimits()); err == nil {
		t.Error("expected CM geometry error")
	}
	// A sketch too large for the pipeline must fail placement.
	g := fcmGeom()
	g.LeafWidth = 1 << 28 // ~0.7GB of leaves
	if _, err := CompileFCM(g, DefaultLimits()); err == nil {
		t.Error("expected per-stage SRAM overflow")
	}
	// Too many trees exceed the per-stage stateful ALU budget.
	g = fcmGeom()
	g.Trees = 5
	if _, err := CompileFCM(g, DefaultLimits()); err == nil {
		t.Error("expected per-stage sALU overflow")
	}
}

func TestAllocationTotals(t *testing.T) {
	a := &Allocation{Limits: DefaultLimits(), Stages: []StageAlloc{
		{SRAMBlocks: 2, SALUs: 1}, {SRAMBlocks: 3, SALUs: 2, HashBits: 10},
	}}
	tot := a.Totals()
	if tot.SRAMBlocks != 5 || tot.SALUs != 3 || tot.HashBits != 10 {
		t.Errorf("totals %+v", tot)
	}
}

func TestTable5Reference(t *testing.T) {
	rows := Table5Reference()
	if len(rows) != 6 {
		t.Fatalf("%d reference rows", len(rows))
	}
	if rows[0].Name != "SketchLearn" || rows[0].Stages != 9 {
		t.Errorf("row 0: %+v", rows[0])
	}
	ref := SwitchP4Reference()
	if ref["SRAM"] != 0.3052 {
		t.Errorf("switch.p4 SRAM %f", ref["SRAM"])
	}
}

// --- TCAM cardinality (Appendix C) ---

func TestTCAMBuildErrors(t *testing.T) {
	if _, err := BuildTCAMCardinality(1, 0.01); err == nil {
		t.Error("expected w1 error")
	}
	if _, err := BuildTCAMCardinality(100, 0); err == nil {
		t.Error("expected maxErr error")
	}
}

func TestTCAMErrorBound(t *testing.T) {
	// Appendix C at the paper's scale: w1 ≈ 495K leaves (1.3MB, two
	// 8-ary trees). Additional error bounded by 0.2% and the table about
	// two orders of magnitude smaller than one entry per w0.
	const w1 = 495616
	tab, err := BuildTCAMCardinality(w1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.MaxRelativeError(); got > 0.002+1e-9 {
		t.Errorf("max extra error %f exceeds 0.002", got)
	}
	if compression := float64(w1) / float64(tab.Entries()); compression < 50 {
		t.Errorf("table has %d entries; compression %.0f×, want ≥50×", tab.Entries(), compression)
	}
	if tab.Entries() < 10 {
		t.Errorf("table suspiciously small: %d entries", tab.Entries())
	}
}

func TestTCAMLookupClamps(t *testing.T) {
	tab, err := BuildTCAMCardinality(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Lookup(0); got != tab.Exact(1) {
		t.Errorf("lookup(0) = %f want exact(1) = %f", got, tab.Exact(1))
	}
	if got := tab.Lookup(5000); got != 0 {
		t.Errorf("lookup beyond w1 = %f want 0", got)
	}
	if got := tab.Exact(1000); got != 0 {
		t.Errorf("exact at w1 = %f", got)
	}
}

// --- Switch execution ---

func TestSwitchFCMBitIdentical(t *testing.T) {
	// §8.2.1: the hardware FCM-Sketch must be bit-identical to the
	// software one given the same seeds.
	const seed = 77
	sw, err := NewSwitch(SwitchConfig{Program: ProgramFCM, MemoryBytes: 1 << 16, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := core.New(core.Config{
		K: 8, Trees: 2, MemoryBytes: 1 << 16,
		Hash: hashing.NewBobFamily(0xfc3141 ^ seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		key := k(uint64(i % 3000))
		sw.Update(key, 1)
		soft.Update(key, 1)
	}
	for i := 0; i < 3000; i++ {
		key := k(uint64(i))
		if sw.Estimate(key) != soft.Estimate(key) {
			t.Fatalf("flow %d: hardware %d != software %d", i, sw.Estimate(key), soft.Estimate(key))
		}
	}
	if d := sw.Sketch().FirstRegisterDiff(soft); d != "" {
		t.Fatalf("registers differ: %s", d)
	}
}

func TestSwitchCardinalityTCAM(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Program: ProgramFCM, MemoryBytes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		sw.Update(k(uint64(i)), 1)
	}
	got, err := sw.Cardinality()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-n)/n > 0.05 {
		t.Errorf("TCAM cardinality %f want ~%d", got, n)
	}
}

func TestSwitchFCMTopK(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Program: ProgramFCMTopK, MemoryBytes: 1 << 19, TopKEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Allocation().NumStages() != 8 {
		t.Errorf("stages %d want 8", sw.Allocation().NumStages())
	}
	for h := uint64(0); h < 5; h++ {
		for i := 0; i < 2000; i++ {
			sw.Update(k(h), 1)
		}
	}
	for m := uint64(100); m < 3000; m++ {
		sw.Update(k(m), 1)
	}
	hh := sw.HeavyHitters(1500)
	for h := uint64(0); h < 5; h++ {
		if _, ok := hh[string(k(h))]; !ok {
			t.Errorf("heavy flow %d missed", h)
		}
	}
	// Estimates never underestimate.
	for h := uint64(0); h < 5; h++ {
		if got := sw.Estimate(k(h)); got < 2000 {
			t.Errorf("flow %d underestimated: %d", h, got)
		}
	}
}

func TestSwitchCMTopK(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Program: ProgramCMTopK, MemoryBytes: 1 << 19,
		CMRows: 2, TopKEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		sw.Update(k(uint64(i%500)), 1)
	}
	if got := sw.Estimate(k(0)); got < 20 {
		t.Errorf("estimate %d too low", got)
	}
	if _, err := sw.Cardinality(); err == nil {
		t.Error("CM program should not support TCAM cardinality")
	}
	if sw.Sketch() != nil || sw.TCAM() != nil {
		t.Error("CM program should expose no FCM sketch")
	}
}

func TestSwitchErrors(t *testing.T) {
	if _, err := NewSwitch(SwitchConfig{Program: Program(99), MemoryBytes: 1 << 16}); err == nil {
		t.Error("expected unknown program error")
	}
	if _, err := NewSwitch(SwitchConfig{Program: ProgramFCMTopK, MemoryBytes: 1000}); err == nil {
		t.Error("expected filter-exceeds-memory error")
	}
}

func TestSwitchReset(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Program: ProgramFCMTopK, MemoryBytes: 1 << 18, TopKEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	sw.Update(k(1), 100)
	sw.Reset()
	if got := sw.Estimate(k(1)); got != 0 {
		t.Errorf("after reset %d", got)
	}
}

func TestProgramString(t *testing.T) {
	if ProgramFCM.String() != "FCM-Sketch" || ProgramFCMTopK.String() != "FCM+TopK" ||
		ProgramCMTopK.String() != "CM+TopK" {
		t.Error("program names wrong")
	}
	if Program(9).String() == "" {
		t.Error("unknown program name empty")
	}
}
