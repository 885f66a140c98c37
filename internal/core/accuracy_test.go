package core

import (
	"math/rand"
	"testing"
)

func TestEtaXiPaperExamples(t *testing.T) {
	// Appendix B walks a binary tree with capacities θ1, θ2, θ3:
	// η1=0, η2=θ1, η3=2θ1+θ2, η4=3θ1+θ2, η5=4θ1+2θ2+θ3.
	thetas := []uint64{100, 1000, 10000} // distinct so mistakes show up
	cases := []struct {
		xi   int
		want uint64
	}{
		{1, 0},
		{2, 100},
		{3, 2*100 + 1000},
		{4, 3*100 + 1000},
		{5, 4*100 + 2*1000 + 10000},
	}
	for _, c := range cases {
		if got := EtaXi(2, thetas, c.xi); got != c.want {
			t.Errorf("eta_%d = %d, want %d", c.xi, got, c.want)
		}
	}
}

func TestEtaXiLowerBound(t *testing.T) {
	// Appendix B.2: η_ξ ≥ (ξ−1)·θ1 for every ξ, which is what reduces
	// Lemma B.1 to Theorem 5.1.
	thetas := []uint64{254, 65534, 4294967294}
	for _, k := range []int{2, 4, 8, 16} {
		for xi := 1; xi <= 64; xi++ {
			if got, lo := EtaXi(k, thetas, xi), uint64(xi-1)*thetas[0]; got < lo {
				t.Errorf("k=%d xi=%d: eta %d below (xi-1)theta1 %d", k, xi, got, lo)
			}
		}
	}
}

func TestEtaXiMonotone(t *testing.T) {
	thetas := []uint64{254, 65534, 4294967294}
	prev := uint64(0)
	for xi := 1; xi <= 100; xi++ {
		got := EtaXi(8, thetas, xi)
		if got < prev {
			t.Fatalf("eta not monotone at xi=%d: %d < %d", xi, got, prev)
		}
		prev = got
	}
}

func TestThetas(t *testing.T) {
	s := newTest(t, Config{K: 8, Trees: 1, LeafWidth: 512})
	th := s.Thetas()
	if len(th) != 3 || th[0] != 254 || th[1] != 65534 || th[2] != 4294967294 {
		t.Errorf("thetas %v", th)
	}
}

func TestBoundsOrdering(t *testing.T) {
	// Theorem 5.1 is a relaxation of Lemma B.1: its bound must never be
	// smaller.
	s := newTest(t, Config{K: 8, Trees: 2, LeafWidth: 512})
	for _, norm1 := range []uint64{1000, 100000, 10_000_000} {
		for _, d := range []int{1, 2, 5, 20} {
			lb := s.LemmaB1Bound(norm1, d)
			tb := s.Theorem51Bound(norm1, d)
			if tb < lb-1e-6 {
				t.Errorf("norm1=%d D=%d: thm bound %f below lemma bound %f", norm1, d, tb, lb)
			}
		}
	}
}

func TestBoundHoldsEmpirically(t *testing.T) {
	// Stream a skewed workload through a small sketch and check the
	// fraction of flows whose error exceeds the Theorem 5.1 bound is at
	// most δ = e^-d.
	s := newTest(t, Config{K: 8, Trees: 2, LeafWidth: 1024})
	rng := rand.New(rand.NewSource(9))
	truth := map[uint64]uint64{}
	var total uint64
	for i := 0; i < 200000; i++ {
		id := uint64(rng.Intn(5000))
		truth[id]++
		s.Update(k8(id), 1)
		total++
	}
	bound := s.Theorem51Bound(total, s.MaxDegree())
	violations := 0
	for id, c := range truth {
		if float64(s.Estimate(k8(id))) > float64(c)+bound {
			violations++
		}
	}
	delta := 0.1353 // e^-2
	if frac := float64(violations) / float64(len(truth)); frac > delta {
		t.Errorf("violation fraction %f exceeds delta %f (bound %f)", frac, delta, bound)
	}
}

func TestMaxDegree(t *testing.T) {
	s := newTest(t, Config{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{2, 4, 8}})
	if got := s.MaxDegree(); got != 1 {
		t.Errorf("empty sketch max degree %d", got)
	}
	// Overflow both leaves of one parent: degree 2 at least.
	setStage(t, s, 0, 0, 3, 3, 0, 0)
	setStage(t, s, 0, 1, 5, 0)
	if got := s.MaxDegree(); got != 2 {
		t.Errorf("max degree %d, want 2", got)
	}
}
