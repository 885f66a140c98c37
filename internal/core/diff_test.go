package core

import "testing"

// TestEqualRegistersComparesEncoding: a marker sketch and a flag-bit
// sketch holding identical register values answer queries differently —
// 128 is an ordinary count under the marker encoding but the flag-bit
// mark of an 8-bit stage — so they must not compare equal, from either
// side. Two sketches of the same encoding holding those values still do.
func TestEqualRegistersComparesEncoding(t *testing.T) {
	build := func(flagBit bool) *Sketch {
		t.Helper()
		s, err := New(Config{K: 2, Trees: 1, LeafWidth: 16, Widths: []int{8, 16, 32}, FlagBitIndicator: flagBit})
		if err != nil {
			t.Fatal(err)
		}
		leaves := make([]uint32, 16)
		leaves[5] = 128
		setStage(t, s, 0, 0, leaves...)
		return s
	}
	estimatesDiffer := func(a, b *Sketch) bool {
		for k := 0; k < 256; k++ {
			key := []byte{byte(k), 0, 0, 0}
			if a.Estimate(key) != b.Estimate(key) {
				return true
			}
		}
		return false
	}

	for _, tc := range []struct {
		name       string
		flagA      bool
		flagB      bool
		wantDiffer bool
	}{
		{"marker-vs-flagbit", false, true, true},
		{"flagbit-vs-marker", true, false, true},
		{"marker-vs-marker", false, false, false},
		{"flagbit-vs-flagbit", true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := build(tc.flagA), build(tc.flagB)
			if got := estimatesDiffer(a, b); got != tc.wantDiffer {
				t.Fatalf("estimates differ = %v, want %v; the fixture lost its point", got, tc.wantDiffer)
			}
			if got := a.EqualRegisters(b); got == tc.wantDiffer {
				t.Fatalf("EqualRegisters = %v, want %v", got, !tc.wantDiffer)
			}
			want := ""
			if tc.wantDiffer {
				want = "counter encoding differs (flag-bit vs marker)"
			}
			if d := a.FirstRegisterDiff(b); d != want {
				t.Fatalf("FirstRegisterDiff = %q, want %q", d, want)
			}
		})
	}
}
