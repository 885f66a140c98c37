package em

import (
	"math"

	"github.com/fcmsketch/fcm/internal/core"
)

// Options tunes EM over an FCM sketch (RunSketch). The zero value selects
// the paper's configuration.
type Options struct {
	// Iterations is the number of EM rounds (default 8; the paper's
	// error stabilizes within 5).
	Iterations int
	// Workers is the parallelism: 0 = all cores (the paper's FCM(m)),
	// 1 = single-threaded (FCM(s)).
	Workers int
	// OnIteration observes the intermediate distribution estimates.
	OnIteration func(iter int, dist []float64)
}

// RunSketch converts sk to virtual counters (§4.1) and runs EM (§4.2) on
// them. A nil opt selects the paper's configuration.
func RunSketch(sk *core.Sketch, opt *Options) (*Result, error) {
	var cfg Config
	if opt != nil {
		cfg = Config{Iterations: opt.Iterations, Workers: opt.Workers, OnIteration: opt.OnIteration}
	}
	return RunSketchConfig(sk, cfg)
}

// RunSketchConfig is RunSketch for callers that set more of Config (such
// as Metrics). W1 and Theta1 are taken from sk's leaf stage.
func RunSketchConfig(sk *core.Sketch, cfg Config) (*Result, error) {
	cfg.W1 = sk.LeafWidth()
	cfg.Theta1 = sk.StageMax(0)
	return Run(cfg, sk.VirtualCounters())
}

// Entropy computes flow entropy from a flow-size distribution, where
// dist[k] is the number of flows of size k: H = −Σ_k n_k·(k/m)·log2(k/m)
// with m the total packet count (§4.4).
func Entropy(dist []float64) float64 {
	m := 0.0
	for k := 1; k < len(dist); k++ {
		m += float64(k) * dist[k]
	}
	if m == 0 {
		return 0
	}
	h := 0.0
	for k := 1; k < len(dist); k++ {
		if dist[k] <= 0 {
			continue
		}
		p := float64(k) / m
		h -= dist[k] * p * math.Log2(p)
	}
	return h
}
