package collect

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPollerValidation(t *testing.T) {
	cases := []PollerConfig{
		{Interval: time.Second, OnSnapshot: func(*Snapshot) {}},             // no addr
		{Addr: "x", OnSnapshot: func(*Snapshot) {}},                         // no interval
		{Addr: "x", Interval: time.Second},                                  // no callback
		{Addr: "x", Interval: -time.Second, OnSnapshot: func(*Snapshot) {}}, // negative
	}
	for i, cfg := range cases {
		if _, err := NewPoller(cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestPollerCollectsAndResets(t *testing.T) {
	s := filledSketch(t)
	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var snaps atomic.Int32
	var nonZero atomic.Int32
	p, err := NewPoller(PollerConfig{
		Addr:     srv.Addr(),
		Interval: 20 * time.Millisecond,
		Reset:    true,
		OnSnapshot: func(snap *Snapshot) {
			snaps.Add(1)
			for _, tree := range snap.Values {
				for _, stage := range tree {
					for _, v := range stage {
						if v != 0 {
							nonZero.Add(1)
							return
						}
					}
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Error("expected already-running error")
	}
	// Wait until at least 3 collections happened.
	deadline := time.Now().Add(5 * time.Second)
	for snaps.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	p.Stop()
	p.Stop() // idempotent
	if snaps.Load() < 3 {
		t.Fatalf("only %d collections", snaps.Load())
	}
	// The first collection saw data; subsequent ones saw a reset sketch,
	// so at most the first snapshot is non-zero.
	if nonZero.Load() > 1 {
		t.Errorf("%d non-empty snapshots; reset not applied", nonZero.Load())
	}
	// After stop, no further callbacks fire.
	before := snaps.Load()
	time.Sleep(60 * time.Millisecond)
	if snaps.Load() != before {
		t.Error("poller kept collecting after Stop")
	}
}

func TestPollerSurvivesErrors(t *testing.T) {
	var errs atomic.Int32
	p, err := NewPoller(PollerConfig{
		Addr:       "127.0.0.1:1", // closed port
		Interval:   15 * time.Millisecond,
		OnSnapshot: func(*Snapshot) { t.Error("unexpected snapshot") },
		OnError:    func(error) { errs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for errs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	p.Stop()
	if errs.Load() < 2 {
		t.Fatalf("only %d errors surfaced", errs.Load())
	}
}
