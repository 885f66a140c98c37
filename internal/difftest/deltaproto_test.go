package difftest

import (
	"net"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/engine"
)

// TestDeltaCollectionEquivalence closes the differential loop over the
// codec v3 delta protocol: for every geometry in the equivalence matrix, a
// workload is replayed into a live engine in windows, and after each
// window the state assembled by a delta-mode client over real TCP —
// baseline plus applied deltas, with a mid-run injected baseline loss —
// must be register-bit-identical to a snapshot taken directly from the
// engine. The delta path is an optimization of the collection plane; this
// test is the claim that it is *only* an optimization.
func TestDeltaCollectionEquivalence(t *testing.T) {
	t.Parallel()
	for gi, g := range Geometries() {
		g := g
		t.Run(g.String(), func(t *testing.T) {
			t.Parallel()
			seed := *flagSeed
			if seed == 0 {
				seed = DeriveSeed(0xde17a9, gi)
			}
			t.Logf("workload seed %d (override with -seed)", seed)
			w := RandomWorkload(DeriveSeed(seed, 1))

			eng, err := engine.New(engine.Config{Sketch: g.CoreConfig()})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := collect.Serve(ln, eng, collect.ServerConfig{
				ReadTimeout:  time.Second,
				WriteTimeout: time.Second,
			})
			defer srv.Close() //nolint:errcheck // teardown
			cli, err := collect.NewClient(collect.ClientConfig{
				Addr:        srv.Addr(),
				DialTimeout: time.Second,
				IOTimeout:   time.Second,
				Delta:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close() //nolint:errcheck // teardown

			// Thirty-two windows keep a window's churn on the small
			// geometries below the size of their stage-width full
			// snapshot, so steady-state reads take the delta path rather
			// than the delta_larger fallback.
			windows := w.Windows(32)
			for wi, win := range windows {
				for _, k := range win.Keys {
					eng.Update(k, 1)
				}
				if wi == len(windows)/2 {
					// Injected generation loss mid-run: the session must
					// degrade to a full snapshot, then resume deltas —
					// without perturbing a single register.
					cli.InvalidateDeltaState()
				}
				snap, err := cli.ReadSketch()
				if err != nil {
					t.Fatalf("window %d: %v", wi, err)
				}
				got, err := snap.Restore(nil)
				if err != nil {
					t.Fatalf("window %d: %v", wi, err)
				}
				direct, _ := eng.Snapshot()
				if d := direct.FirstRegisterDiff(got); d != "" {
					t.Fatalf("window %d: delta-collected state diverged from direct snapshot: %s", wi, d)
				}
			}

			// The loop must actually have exercised both protocol modes:
			// deltas in steady state, fulls at session start and after the
			// injected loss.
			st := cli.Stats()
			if st.DeltasApplied == 0 {
				t.Error("no deltas applied: the test never left the full-snapshot path")
			}
			if st.FullSnapshots < 2 {
				t.Errorf("expected ≥2 full snapshots (session start + injected loss), got %d", st.FullSnapshots)
			}
			fb := srv.Stats().Fallbacks["no_baseline"]
			if fb < 2 {
				t.Errorf("server counted %d no_baseline fallbacks, want ≥2", fb)
			}
		})
	}
}
