package core

import "testing"

// statSketch builds a tiny instrumented sketch: 1 tree of {2,4,8}-bit
// stages so overflows are easy to force (leaf capacity 2, marker 3).
func statSketch(t *testing.T) (*Sketch, *Stats) {
	t.Helper()
	s, err := New(Config{K: 2, Trees: 1, Widths: []int{2, 4, 8}, LeafWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStats(s.Depth())
	s.SetStats(st)
	return s, st
}

func TestStatsCountsUpdatesAndPromotions(t *testing.T) {
	s, st := statSketch(t)
	key := []byte("flow-a")
	// Leaf capacity is 2^2−2 = 2: the third packet promotes to stage 2.
	for i := 0; i < 3; i++ {
		s.Update(key, 1)
	}
	if got := st.Updates.Load(); got != 3 {
		t.Errorf("updates %d, want 3", got)
	}
	if got := st.PromotionCount(0); got != 1 {
		t.Errorf("stage-0 promotions %d, want 1", got)
	}
	if got := st.PromotionCount(1); got != 0 {
		t.Errorf("stage-1 promotions %d, want 0", got)
	}
	// Stage-2 capacity is 2^4−2 = 14; pushing the same flow past
	// 2+14 = 16 total promotes again.
	s.Update(key, 20)
	if got := st.PromotionCount(1); got != 1 {
		t.Errorf("stage-1 promotions %d, want 1", got)
	}
	// Root capacity is 2^8−2 = 254; exceed 2+14+254 to saturate.
	s.Update(key, 1000)
	if got := st.Saturations.Load(); got == 0 {
		t.Error("expected a root saturation")
	}
	// Estimates still behave (saturated at the root's capacity).
	if est := s.Estimate(key); est != 2+14+254 {
		t.Errorf("estimate %d, want %d", est, 2+14+254)
	}
	// Out-of-range promotion reads are safe.
	if st.PromotionCount(99) != 0 || st.PromotionCount(-1) != 0 {
		t.Error("out-of-range PromotionCount not zero")
	}
}

func TestStatsSurviveResetAndSkipClone(t *testing.T) {
	s, st := statSketch(t)
	s.Update([]byte("x"), 5)
	c := s.Clone()
	if c.Stats() != nil {
		t.Error("clone inherited stats")
	}
	c.Update([]byte("x"), 1)
	if got := st.Updates.Load(); got != 1 {
		t.Errorf("clone update leaked into stats: %d", got)
	}
	s.Reset()
	if st.Updates.Load() != 1 {
		t.Error("Reset cleared cumulative stats")
	}
	s.SetStats(nil)
	s.Update([]byte("x"), 1)
	if st.Updates.Load() != 1 {
		t.Error("detached stats still counting")
	}
}

func TestSetStatsDepthMismatchPanics(t *testing.T) {
	s, _ := statSketch(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for undersized Stats")
		}
	}()
	s.SetStats(&Stats{})
}

// TestCensusOccupancyAndOverflowed pins the census on a one-tree {2,4,8}
// sketch: nonzero and overflowed nodes, the leaf marker counted as its
// capacity in the mass, and a clamped root.
func TestCensusOccupancyAndOverflowed(t *testing.T) {
	s, _ := statSketch(t)
	for l, c := range s.Census()[0] {
		if c != (StageCensus{}) {
			t.Errorf("stage %d census %+v on empty sketch", l, c)
		}
	}
	// One overflowed flow: its leaf sits at the marker (mass 2, the leaf
	// capacity), its stage-1 parent holds the excess 3.
	s.Update([]byte("flow-a"), 5)
	want := []StageCensus{
		{Nonzero: 1, Overflowed: 1, Load: 2, Max: 3},
		{Nonzero: 1, Load: 3, Max: 3},
		{},
	}
	for l, c := range s.Census()[0] {
		if c != want[l] {
			t.Errorf("stage %d census %+v, want %+v", l, c, want[l])
		}
	}
	if got := s.TotalCount(0); got != 5 {
		t.Errorf("TotalCount %d, want 5", got)
	}
	// Saturate the root: the root stage must report one clamped node.
	s.Update([]byte("flow-a"), 10_000)
	root := s.Census()[0][2]
	if root.Overflowed != 1 || root.Max != s.StageMax(2) {
		t.Errorf("root census %+v, want one clamped node at %d", root, s.StageMax(2))
	}
}
