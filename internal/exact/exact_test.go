package exact

import (
	"math"
	"testing"

	"github.com/fcmsketch/fcm/internal/packet"
)

func key(b byte) packet.Key {
	var t packet.FiveTuple
	t.SrcIP = [4]byte{b, 0, 0, 1}
	return packet.KeyOf(t, packet.KeySrcIP)
}

func TestTrackerBasics(t *testing.T) {
	tr := New()
	tr.UpdateKey(key(1), 3)
	tr.UpdateKey(key(2), 1)
	tr.UpdateKey(key(1), 2)
	if got := tr.Count(key(1)); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := tr.Count(key(9)); got != 0 {
		t.Errorf("missing flow count = %d, want 0", got)
	}
	if tr.Total() != 6 {
		t.Errorf("total = %d, want 6", tr.Total())
	}
	if tr.Cardinality() != 2 {
		t.Errorf("cardinality = %d, want 2", tr.Cardinality())
	}
}

func TestFlowsIteration(t *testing.T) {
	tr := New()
	tr.UpdateKey(key(1), 1)
	tr.UpdateKey(key(2), 2)
	sum := uint64(0)
	n := 0
	tr.Flows(func(k packet.Key, c uint64) {
		sum += c
		n++
	})
	if sum != 3 || n != 2 {
		t.Errorf("iterated sum=%d n=%d", sum, n)
	}
}

func TestHeavyHitters(t *testing.T) {
	tr := New()
	tr.UpdateKey(key(1), 100)
	tr.UpdateKey(key(2), 10)
	tr.UpdateKey(key(3), 50)
	hh := tr.HeavyHitters(50)
	if len(hh) != 2 {
		t.Fatalf("hh size %d want 2", len(hh))
	}
	if hh[key(1)] != 100 || hh[key(3)] != 50 {
		t.Errorf("hh contents wrong: %v", hh)
	}
}

func TestDistribution(t *testing.T) {
	tr := New()
	tr.UpdateKey(key(1), 3)
	tr.UpdateKey(key(2), 3)
	tr.UpdateKey(key(3), 1)
	d := tr.Distribution()
	if len(d) != 4 {
		t.Fatalf("dist len %d want 4", len(d))
	}
	if d[1] != 1 || d[3] != 2 || d[2] != 0 {
		t.Errorf("dist %v", d)
	}
}

func TestEntropyUniform(t *testing.T) {
	// n equal flows → entropy log2(n).
	tr := New()
	for i := 0; i < 16; i++ {
		tr.UpdateKey(key(byte(i)), 10)
	}
	if got, want := tr.Entropy(), 4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("entropy %f want %f", got, want)
	}
}

func TestEntropySingleFlow(t *testing.T) {
	tr := New()
	tr.UpdateKey(key(1), 100)
	if got := tr.Entropy(); got != 0 {
		t.Errorf("entropy of single flow = %f, want 0", got)
	}
	if got := New().Entropy(); got != 0 {
		t.Errorf("entropy of empty tracker = %f, want 0", got)
	}
}

func TestHeavyChanges(t *testing.T) {
	a, b := New(), New()
	a.UpdateKey(key(1), 100) // drops to 10: change -90
	b.UpdateKey(key(1), 10)
	a.UpdateKey(key(2), 5) // grows to 95: change +90
	b.UpdateKey(key(2), 95)
	a.UpdateKey(key(3), 50) // stable
	b.UpdateKey(key(3), 55)
	b.UpdateKey(key(4), 70) // new flow: +70

	hc := HeavyChanges(a, b, 60)
	if len(hc) != 3 {
		t.Fatalf("heavy changes %v, want 3 entries", hc)
	}
	if hc[key(1)] != -90 || hc[key(2)] != 90 || hc[key(4)] != 70 {
		t.Errorf("heavy changes %v", hc)
	}
}
