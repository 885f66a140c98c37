package difftest

import (
	"encoding/binary"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/insight"
)

// insightKey builds a distinct 4-byte key for flow f.
func insightKey(f uint32) []byte {
	k := make([]byte, 4)
	binary.BigEndian.PutUint32(k, f^0x15a9e7b1)
	return k
}

// TestInsightAgainstOracle drives a deliberately tiny sketch toward root
// saturation window by window and checks the live accuracy self-report
// against exact ground truth at every step:
//
//   - The saturation forecast must fire (a finite windows-to-saturation
//     estimate inside the warning horizon) strictly before the root
//     actually clamps — the report warns while there is still headroom.
//   - While unsaturated, the measured error must stay inside the reported
//     Theorem 5.1 bound: the mean per-flow overestimate stays under
//     ErrorBound packets, and the same error relative to stream mass
//     stays under RelativeErrorBound (the bound's documented
//     normalization). The bound is one-sided — counts only undercount
//     after saturation, which is exactly what Saturated flags.
func TestInsightAgainstOracle(t *testing.T) {
	t.Parallel()
	seed := *flagSeed
	if seed == 0 {
		seed = DeriveSeed(0x1a51647, 0)
	}
	t.Logf("hash seed %d (override with -seed)", seed)

	sk, err := core.New(core.Config{
		K:         2,
		Trees:     2,
		Widths:    []int{4, 6, 8},
		LeafWidth: 16,
		Hash:      hashing.NewBobFamily(uint32(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	sk.SetStats(core.NewStats(sk.Depth()))
	const horizon = 8
	an := insight.NewAnalyzer()

	const (
		background = 12 // light flows, one packet per window
		hotStep    = 12 // hot flow packets per window — root grows ~linearly
		maxWindows = 80
	)
	truth := map[uint32]uint64{}
	var totalTrue uint64
	update := func(f uint32, inc uint64) {
		sk.Update(insightKey(f), inc)
		truth[f] += inc
		totalTrue += inc
	}

	forecastAt, saturatedAt := -1, -1
	var lastUnsat insight.Report
	for w := 1; w <= maxWindows && saturatedAt < 0; w++ {
		update(0, hotStep)
		for f := uint32(1); f <= background; f++ {
			update(f, 1)
		}

		obs := insight.Observe(sk)
		obs.ExactMaxDegree = sk.MaxDegree()
		rep := an.Note(obs)

		if rep.Saturated {
			saturatedAt = w
			break
		}
		lastUnsat = rep
		if forecastAt < 0 && rep.ForecastWindows >= 0 && rep.ForecastWindows <= horizon {
			forecastAt = w
		}

		// Oracle check: every flow's estimate against its true count.
		var sumErr float64
		for f, want := range truth {
			got := sk.Estimate(insightKey(f))
			if got < want {
				t.Fatalf("window %d: flow %d undercounted (%d < %d) before saturation", w, f, got, want)
			}
			sumErr += float64(got - want)
		}
		meanErr := sumErr / float64(len(truth))
		if meanErr > rep.ErrorBound {
			t.Fatalf("window %d: mean overestimate %.2f packets exceeds reported bound %.2f",
				w, meanErr, rep.ErrorBound)
		}
		if are := meanErr / float64(totalTrue); are > rep.RelativeErrorBound {
			t.Fatalf("window %d: measured relative error %.4f exceeds reported relative bound %.4f",
				w, are, rep.RelativeErrorBound)
		}
	}

	if saturatedAt < 0 {
		t.Fatalf("root never saturated in %d windows (workload too light for the geometry)", maxWindows)
	}
	if forecastAt < 0 {
		t.Fatalf("saturation forecast never fired; root clamped at window %d", saturatedAt)
	}
	if forecastAt >= saturatedAt {
		t.Fatalf("forecast fired at window %d, not before actual saturation at window %d",
			forecastAt, saturatedAt)
	}
	t.Logf("forecast fired at window %d, root saturated at window %d (%d windows of warning)",
		forecastAt, saturatedAt, saturatedAt-forecastAt)

	// The last pre-saturation report should already have been pushing the
	// operator to grow the root stage.
	root := lastUnsat.Stages[len(lastUnsat.Stages)-1]
	if root.Recommendation != insight.RecGrow {
		t.Errorf("last unsaturated report recommends %q for the root, want %q",
			root.Recommendation, insight.RecGrow)
	}
}
