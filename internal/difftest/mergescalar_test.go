package difftest

import (
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
)

// stages holds one tree's registers, leaves first: K=2, four leaves, two
// middle nodes, one root.
type stages [3][]uint32

func stageSketch(t *testing.T, flagBit bool, vals stages) *core.Sketch {
	t.Helper()
	s, err := core.New(core.Config{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{2, 4, 8}, FlagBitIndicator: flagBit})
	if err != nil {
		t.Fatal(err)
	}
	for l, v := range vals {
		if v == nil {
			continue
		}
		if err := SetStageValues(s, 0, l, v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestMergeScalarHandWorked pins the scalar merge oracle to register
// values worked out by hand from the §5 rule, so the oracle is checked
// against arithmetic rather than only against the kernel it guards. With
// widths {2,4,8} the marker encoding has capacities θ = 2/14/254 (marks
// 3/15/255) and the flag-bit encoding θ = 1/7/127 (marks 2/8/128). Each
// case also runs core's word-wide Merge on the same inputs.
func TestMergeScalarHandWorked(t *testing.T) {
	for _, tc := range []struct {
		name     string
		flagBit  bool
		dst, src stages
		want     stages
	}{
		{
			name: "below-capacity",
			dst:  stages{{1, 0, 0, 1}},
			src:  stages{{1, 1, 0, 0}},
			want: stages{{2, 1, 0, 1}, {0, 0}, {0}},
		},
		{
			name: "overflow-carries-excess",
			dst:  stages{{2, 0, 0, 0}},
			src:  stages{{2, 0, 0, 0}},
			want: stages{{3, 0, 0, 0}, {2, 0}, {0}},
		},
		{
			name: "sibling-carries-add",
			dst:  stages{{2, 2, 0, 0}},
			src:  stages{{2, 2, 0, 0}},
			want: stages{{3, 3, 0, 0}, {4, 0}, {0}},
		},
		{
			name: "marked-source-no-excess",
			dst:  stages{{3, 0, 0, 0}, {1, 0}},
			src:  stages{{0, 0, 0, 0}},
			want: stages{{3, 0, 0, 0}, {1, 0}, {0}},
		},
		{
			name: "marked-source-with-excess",
			dst:  stages{{3, 0, 0, 0}, {1, 0}},
			src:  stages{{1, 0, 0, 0}},
			want: stages{{3, 0, 0, 0}, {2, 0}, {0}},
		},
		{
			name: "cascade-to-root",
			dst:  stages{{2, 0, 0, 0}, {14, 0}},
			src:  stages{{2, 0, 0, 0}},
			want: stages{{3, 0, 0, 0}, {15, 0}, {2}},
		},
		{
			name: "root-saturates",
			dst:  stages{nil, nil, {250}},
			src:  stages{nil, nil, {10}},
			want: stages{{0, 0, 0, 0}, {0, 0}, {254}},
		},
		{
			name:    "flagbit-overflow",
			flagBit: true,
			dst:     stages{{1, 0, 0, 0}},
			src:     stages{{1, 0, 0, 0}},
			want:    stages{{2, 0, 0, 0}, {1, 0}, {0}},
		},
		{
			name:    "flagbit-root-saturates",
			flagBit: true,
			dst:     stages{nil, nil, {100}},
			src:     stages{nil, nil, {100}},
			want:    stages{{0, 0, 0, 0}, {0, 0}, {127}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst, src := stageSketch(t, tc.flagBit, tc.dst), stageSketch(t, tc.flagBit, tc.src)
			word := dst.Clone()
			if err := MergeScalar(dst, src); err != nil {
				t.Fatalf("MergeScalar: %v", err)
			}
			if d := dst.FirstRegisterDiff(stageSketch(t, tc.flagBit, tc.want)); d != "" {
				t.Fatalf("oracle differs from the hand-worked registers: %s", d)
			}
			if err := word.Merge(src); err != nil {
				t.Fatalf("Merge: %v", err)
			}
			if d := word.FirstRegisterDiff(dst); d != "" {
				t.Fatalf("word-wide merge differs from the oracle: %s", d)
			}
		})
	}
}

// TestMergeScalarRefusesIncompatible: the oracle refuses what core's
// Merge refuses and leaves dst untouched.
func TestMergeScalarRefusesIncompatible(t *testing.T) {
	base := core.Config{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{2, 4, 8}}
	flag := base
	flag.FlagBitIndicator = true
	narrow := base
	narrow.Widths = []int{2, 4, 6}
	for _, tc := range []struct {
		name string
		src  core.Config
	}{
		{"encoding", flag},
		{"widths", narrow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := stageSketch(t, false, stages{{1, 2, 0, 1}, {5, 0}, {7}})
			before := dst.Clone()
			src, err := core.New(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := MergeScalar(dst, src); err == nil {
				t.Fatal("MergeScalar accepted an incompatible sketch")
			}
			if d := dst.FirstRegisterDiff(before); d != "" {
				t.Fatalf("refused merge changed dst: %s", d)
			}
		})
	}
}
