package collect

import (
	"runtime"
	"testing"
)

// TestEngineServerReadsBuildNothing: a steady delta poller of an
// engine-sourced server builds no sketch. Each read's snapshot is copied
// into the session's own bytes and handed back to the engine, which
// copies the next read into it. The test runs on one P, so every sketch
// handed back lands in the pool slot the next read takes from, and skips
// under the race detector, where sync.Pool drops entries at random.
func TestEngineServerReadsBuildNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng := buildEngine(t)
	srv, err := NewServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := NewClient(ClientConfig{Addr: srv.Addr(), Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	read := func(round uint64) {
		for i := uint64(0); i < 50; i++ {
			eng.Update(k(round*50+i), 1)
		}
		if _, err := cl.ReadSketch(); err != nil {
			t.Fatal(err)
		}
	}
	const warm, rounds = 4, 64
	for r := uint64(0); r < warm; r++ {
		read(r)
	}
	before := eng.Builds()
	for r := uint64(warm); r < warm+rounds; r++ {
		read(r)
	}
	if n := eng.Builds() - before; n != 0 {
		t.Fatalf("%d sketches built over %d steady reads, want 0", n, rounds)
	}
	if st := srv.Stats(); st.DeltaReads < warm+rounds {
		t.Fatalf("server counted %d delta reads, want %d", st.DeltaReads, warm+rounds)
	}
}
