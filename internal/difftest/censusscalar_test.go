package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/insight"
)

// TestCensusMatchesScalar holds core.Sketch.Census to the four scalar
// walks it replaced, and insight.Observe to an Observation assembled from
// those walks, on every geometry of the lane sweep (1-, 2- and 4-byte
// lanes, sub-word tails, widths narrower than their lane, marker and
// flag-bit encodings) at five loads: empty, sparse, dense, a saturated
// root, and registers written above their stage marker. A decoded
// snapshot can carry the last kind — copy-in checks only the lane range —
// and the old walks disagree on them: the mass substitutes the capacity
// only for a node exactly at the marker, while a node at or above it
// counts as overflowed. The census must keep both rules.
func TestCensusMatchesScalar(t *testing.T) {
	loads := []struct {
		name string
		fill func(s *core.Sketch, rng *rand.Rand)
	}{
		{"empty", func(*core.Sketch, *rand.Rand) {}},
		{"sparse", func(s *core.Sketch, rng *rand.Rand) { loadRandom(s, rng, 3) }},
		{"dense", func(s *core.Sketch, rng *rand.Rand) { loadRandom(s, rng, 4*s.LeafWidth()) }},
		{"root-saturated", func(s *core.Sketch, rng *rand.Rand) {
			loadRandom(s, rng, s.LeafWidth())
			s.Update([]byte("hot"), 1<<40)
		}},
		{"above-marker", func(s *core.Sketch, rng *rand.Rand) {
			loadRandom(s, rng, s.LeafWidth())
			writeAboveMarker(s, rng)
		}},
	}
	for gi, cfg := range laneDiffGeometries() {
		for li, ld := range loads {
			name := fmt.Sprintf("k%d_d%d_w%v_leaf%d_flag%v/%s", cfg.K, cfg.Trees, cfg.Widths, cfg.LeafWidth, cfg.FlagBitIndicator, ld.name)
			t.Run(name, func(t *testing.T) {
				seed := DeriveSeed(0xce5505, 8*gi+li)
				t.Logf("seed %d", seed)
				s, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ld.fill(s, newRng(seed))
				checkCensus(t, s)
			})
		}
	}
}

// writeAboveMarker sets a few registers of every stage to values between
// the stage's marker and its lane's maximum (where the lane leaves room),
// including at the root.
func writeAboveMarker(s *core.Sketch, rng *rand.Rand) {
	for tr := 0; tr < s.NumTrees(); tr++ {
		for l := 0; l < s.Depth(); l++ {
			mark := s.StageMax(l) + 1
			laneMax := uint64(1)<<(8*core.LaneBytes(s.StageWidth(l))) - 1
			vals := StageValues(s, tr, l)
			for _, v := range []uint64{mark, mark + 1, laneMax} {
				if v <= laneMax {
					vals[rng.Intn(len(vals))] = uint32(v)
				}
			}
			if err := SetStageValues(s, tr, l, vals); err != nil {
				panic(err)
			}
		}
	}
}

// checkCensus compares the census of s with the scalar walks, the tree
// totals with the census loads, and Observe with the walks' Observation.
func checkCensus(t *testing.T, s *core.Sketch) {
	t.Helper()
	depth := s.Depth()
	occ := make([]float64, depth)
	over := make([]int, depth)
	load := make([]uint64, depth)
	var rootMax uint64
	for tr, stages := range s.Census() {
		var total uint64
		for l, c := range stages {
			occ[l] += float64(c.Nonzero) / float64(len(StageValues(s, tr, l)))
			over[l] += c.Overflowed
			load[l] += c.Load
			total += c.Load
		}
		rootMax = max(rootMax, stages[depth-1].Max)
		if got := s.TotalCount(tr); got != total {
			t.Errorf("tree %d: TotalCount %d, census loads sum to %d", tr, got, total)
		}
	}
	for l := range occ {
		occ[l] /= float64(s.NumTrees())
	}
	if want := StageOccupancyScalar(s); !slices.Equal(occ, want) {
		t.Errorf("census occupancy %v, scalar %v", occ, want)
	}
	if want := OverflowedNodesScalar(s); !slices.Equal(over, want) {
		t.Errorf("census overflowed %v, scalar %v", over, want)
	}
	if want := StageLoadScalar(s); !slices.Equal(load, want) {
		t.Errorf("census load %v, scalar %v", load, want)
	}
	if want := MaxStageValueScalar(s, depth-1); rootMax != want {
		t.Errorf("census root max %d, scalar %d", rootMax, want)
	}
	for l := 0; l < depth-1; l++ {
		top := uint64(0)
		for _, stages := range s.Census() {
			top = max(top, stages[l].Max)
		}
		if want := MaxStageValueScalar(s, l); top != want {
			t.Errorf("stage %d: census max %d, scalar %d", l, top, want)
		}
	}

	got, want := insight.Observe(s), observeScalar(s)
	got.At, want.At = time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Observe diverged from the scalar walks:\n got %+v\nwant %+v", got, want)
	}
}

// observeScalar assembles the Observation insight.Observe returns from the
// scalar walks, field by field as the pre-census Observe did.
func observeScalar(s *core.Sketch) insight.Observation {
	geo := insight.GeometryOf(s)
	load := StageLoadScalar(s)
	norm1 := uint64(0)
	for _, m := range load {
		norm1 += m
	}
	return insight.Observation{
		Geometry:      geo,
		Norm1:         float64(norm1) / float64(geo.Trees),
		Occupancy:     StageOccupancyScalar(s),
		Overflowed:    OverflowedNodesScalar(s),
		StageLoad:     load,
		MaxRoot:       MaxStageValueScalar(s, geo.Depth-1),
		Cardinality:   s.Cardinality(),
		EmptyFraction: s.EmptyLeaves() / float64(geo.LeafWidth),
	}
}
