package exp

import (
	"fmt"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/metrics"
)

// RunAblation isolates two design choices DESIGN.md calls out:
//
//  1. the overflow indicator — the paper's max-value marker versus a
//     dedicated flag bit per node (design intuition #2 of §3.1), and
//  2. the stage width profile — the paper's 8/16/32 bits versus shallower
//     and deeper alternatives at the same memory.
//
// Both run on the standard CAIDA-like workload at the harness memory.
func RunAblation(o Options) ([]*Table, error) {
	o = o.withDefaults()
	tr, err := o.caidaTrace()
	if err != nil {
		return nil, err
	}
	mem := o.MemoryBytes()
	truthDist := trueDistribution(tr)

	build := func(widths []int, flagBit bool) (*core.Sketch, error) {
		return core.New(core.Config{
			K:                8,
			Trees:            2,
			Widths:           widths,
			MemoryBytes:      mem,
			Hash:             hashing.NewBobFamily(0xab1a ^ uint32(o.Seed)),
			FlagBitIndicator: flagBit,
		})
	}
	eval := func(s *core.Sketch) (are, aae, wmre float64, err error) {
		ingest(tr, s)
		are, aae = flowErrors(tr, s)
		res, err := em.RunSketchConfig(s, em.Config{
			Iterations: o.EMIterations, Workers: o.Workers,
			Metrics: o.EMMetrics,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		return are, aae, metrics.WMRE(truthDist, res.Dist), nil
	}

	ind := &Table{ID: "ablation-indicator",
		Title:     "Overflow indicator: max-value marker vs dedicated flag bit (8-ary, 8/16/32)",
		PaperNote: "§3.1 intuition #2: the marker uses bit-space more efficiently than flag bits [19,60]",
		Headers:   []string{"indicator", "ARE", "AAE", "WMRE"}}
	for _, flagBit := range []bool{false, true} {
		s, err := build(core.DefaultWidths(), flagBit)
		if err != nil {
			return nil, err
		}
		are, aae, wm, err := eval(s)
		if err != nil {
			return nil, err
		}
		name := "max-value marker"
		if flagBit {
			name = "flag bit"
		}
		ind.AddRow(name, are, aae, wm)
		o.logf("ablation: indicator=%s done", name)
	}

	wid := &Table{ID: "ablation-widths",
		Title:     "Stage width profiles at equal memory (8-ary)",
		PaperNote: "the paper's 8/16/32 balances leaf count against overflow frequency",
		Headers:   []string{"widths", "leaf nodes", "ARE", "AAE", "WMRE"}}
	for _, widths := range [][]int{
		{8, 16, 32},
		{4, 8, 32},
		{4, 16, 32},
		{8, 32},
		{4, 8, 16, 32},
	} {
		s, err := build(widths, false)
		if err != nil {
			return nil, fmt.Errorf("ablation widths %v: %w", widths, err)
		}
		are, aae, wm, err := eval(s)
		if err != nil {
			return nil, err
		}
		wid.AddRow(fmt.Sprintf("%v", widths), s.LeafWidth(), are, aae, wm)
		o.logf("ablation: widths=%v done", widths)
	}

	cu := &Table{ID: "ablation-cu",
		Title:     "Conservative update across trees (the §7.1 extension the paper skips)",
		PaperNote: "§7.1: CU improves FCM about as much as it improves CM; not PISA-implementable",
		Headers:   []string{"update rule", "ARE", "AAE"}}
	for _, conservative := range []bool{false, true} {
		s, err := core.New(core.Config{
			K: 8, Trees: 2, MemoryBytes: mem,
			Hash:         hashing.NewBobFamily(0xab1a ^ uint32(o.Seed)),
			Conservative: conservative,
		})
		if err != nil {
			return nil, err
		}
		ingest(tr, s)
		are, aae := flowErrors(tr, s)
		name := "plain"
		if conservative {
			name = "conservative (FCM-CU)"
		}
		cu.AddRow(name, are, aae)
		o.logf("ablation: cu=%v done", conservative)
	}
	return []*Table{ind, wid, cu}, nil
}
