package difftest

import (
	"fmt"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/exact"
	"github.com/fcmsketch/fcm/internal/packet"
	"github.com/fcmsketch/fcm/internal/pisa"
)

// Serial ingests w through the plain serial Update path — the reference
// every other path is measured against.
func Serial(g Geometry, w *Workload) (*core.Sketch, error) {
	s, err := g.NewCore()
	if err != nil {
		return nil, err
	}
	for _, k := range w.Keys {
		s.Update(k, 1)
	}
	return s, nil
}

// requireEqual formats the register diff between got and the serial
// reference want, or returns nil when bit-exact.
func requireEqual(path string, want, got *core.Sketch) error {
	if d := want.FirstRegisterDiff(got); d != "" {
		return fmt.Errorf("%s diverged from serial: %s", path, d)
	}
	return nil
}

// CheckBatchEqualsSerial asserts UpdateBatch over any chunking of the
// stream is bit-identical to per-packet Update.
func CheckBatchEqualsSerial(g Geometry, w *Workload, ref *core.Sketch, batch int) error {
	s, err := g.NewCore()
	if err != nil {
		return err
	}
	for lo := 0; lo < len(w.Keys); lo += batch {
		hi := lo + batch
		if hi > len(w.Keys) {
			hi = len(w.Keys)
		}
		s.UpdateBatch(w.Keys[lo:hi], 1)
	}
	return requireEqual(fmt.Sprintf("batch(%d)", batch), ref, s)
}

// CheckShardedEqualsSerial asserts the sharded engine — key-affinity
// updates merged into one snapshot — is bit-identical to serial ingest.
func CheckShardedEqualsSerial(g Geometry, w *Workload, ref *core.Sketch, shards int) error {
	sh, err := newSharded(g, shards)
	if err != nil {
		return err
	}
	for _, k := range w.Keys {
		sh.Update(k, 1)
	}
	return requireEqual(fmt.Sprintf("sharded(%d)", shards), ref, sh.Snapshot().Core())
}

// CheckEngineBatcherEqualsSerial asserts the batched shard-affinity path
// (engine.Batcher: arena-copied keys, one lock per flush) is bit-identical
// to serial ingest.
func CheckEngineBatcherEqualsSerial(g Geometry, w *Workload, ref *core.Sketch, shards, batch int) error {
	sh, err := newSharded(g, shards)
	if err != nil {
		return err
	}
	b := sh.Engine().NewBatcher(batch, 1)
	for _, k := range w.Keys {
		b.Add(k)
	}
	b.Flush()
	return requireEqual(fmt.Sprintf("batcher(%d,%d)", shards, batch), ref, sh.Snapshot().Core())
}

// CheckPisaEqualsSerial asserts the PISA-simulated data plane — the
// hardware claim of §8.2.1 — is bit-identical to the software sketch, and
// answers identical count queries for every flow in the stream.
func CheckPisaEqualsSerial(g Geometry, w *Workload, ref *core.Sketch) error {
	sw, err := pisa.NewSwitch(g.SwitchConfig())
	if err != nil {
		return err
	}
	for _, k := range w.Keys {
		sw.Update(k, 1)
	}
	if err := requireEqual("pisa", ref, sw.Sketch()); err != nil {
		return err
	}
	for _, k := range w.Keys {
		if hw, sw2 := sw.Estimate(k), ref.Estimate(k); hw != sw2 {
			return fmt.Errorf("pisa estimate for %x: hardware %d vs software %d", k, hw, sw2)
		}
	}
	return nil
}

// CheckCodecRoundTrip asserts the collect wire codec is the identity on
// register state: snapshot → encode → decode → restore is bit-exact.
func CheckCodecRoundTrip(g Geometry, ref *core.Sketch) error {
	data, err := collect.TakeSnapshot(ref).Encode()
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	snap, err := collect.DecodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	restored, err := snap.Restore(g.CoreConfig().Hash)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	return requireEqual("codec round-trip", ref, restored)
}

// CheckMergeCommutative asserts merge(A,B) == merge(B,A) bit-for-bit, and
// that both equal the serial ingest of the concatenated streams.
func CheckMergeCommutative(g Geometry, a, b *Workload) error {
	build := func(w *Workload) (*core.Sketch, error) { return Serial(g, w) }
	ab1, err := build(a)
	if err != nil {
		return err
	}
	ab2, err := build(b)
	if err != nil {
		return err
	}
	if err := ab1.Merge(ab2); err != nil {
		return fmt.Errorf("merge A<-B: %w", err)
	}
	ba1, err := build(a)
	if err != nil {
		return err
	}
	ba2, err := build(b)
	if err != nil {
		return err
	}
	if err := ba2.Merge(ba1); err != nil {
		return fmt.Errorf("merge B<-A: %w", err)
	}
	if err := requireEqual("merge(B,A) vs merge(A,B)", ab1, ba2); err != nil {
		return err
	}
	whole, err := Serial(g, &Workload{Keys: append(append([][]byte{}, a.Keys...), b.Keys...)})
	if err != nil {
		return err
	}
	return requireEqual("merge(A,B) vs serial(A++B)", whole, ab1)
}

// CheckMergeAssociative asserts (A∪B)∪C == A∪(B∪C) bit-for-bit.
func CheckMergeAssociative(g Geometry, a, b, c *Workload) error {
	left := make([]*core.Sketch, 3)
	right := make([]*core.Sketch, 3)
	for i, w := range []*Workload{a, b, c} {
		var err error
		if left[i], err = Serial(g, w); err != nil {
			return err
		}
		if right[i], err = Serial(g, w); err != nil {
			return err
		}
	}
	if err := left[0].Merge(left[1]); err != nil {
		return err
	}
	if err := left[0].Merge(left[2]); err != nil {
		return err
	}
	if err := right[1].Merge(right[2]); err != nil {
		return err
	}
	if err := right[0].Merge(right[1]); err != nil {
		return err
	}
	return requireEqual("right-associated merge", left[0], right[0])
}

// CheckSWARMergeEqualsScalar asserts the word-wide merge path is
// bit-identical to the scalar reference walk (MergeScalar) on the workload's
// halves — and again after a saturation burst has driven overflow markers
// (and the carry chain) through every stage, so the fallback spans are
// exercised, not just the all-unmarked fast path.
func CheckSWARMergeEqualsScalar(g Geometry, w *Workload) error {
	halves := w.Windows(2)
	if len(halves) < 2 {
		halves = []*Workload{w, w}
	}
	compare := func(label string, wa, wb *Workload) error {
		a, err := Serial(g, wa)
		if err != nil {
			return err
		}
		b, err := Serial(g, wb)
		if err != nil {
			return err
		}
		sa, err := Serial(g, wa)
		if err != nil {
			return err
		}
		sb, err := Serial(g, wb)
		if err != nil {
			return err
		}
		if err := a.Merge(b); err != nil {
			return fmt.Errorf("%s: merge: %w", label, err)
		}
		if err := MergeScalar(sa, sb); err != nil {
			return fmt.Errorf("%s: scalar merge: %w", label, err)
		}
		return requireEqual(label, sa, a)
	}
	if err := compare("word merge vs scalar", halves[0], halves[1]); err != nil {
		return err
	}
	if len(w.Keys) == 0 {
		return nil
	}
	// Saturation burst: hammer a handful of keys hard enough to overflow
	// low stages on both sides, so merged words hold marks and nonzero
	// carries.
	burst := &Workload{Keys: append([][]byte{}, halves[0].Keys...)}
	for i := 0; i < 4 && i < len(w.Keys); i++ {
		for r := 0; r < 4096; r++ {
			burst.Keys = append(burst.Keys, w.Keys[i])
		}
	}
	return compare("word merge vs scalar (saturated)", burst, halves[1])
}

// CheckRotateLinearity asserts window rotation is linear: ingesting the
// stream in consecutive windows with a Rotate between each, then merging
// every closed window with the live remainder, is bit-identical to serial
// ingest of the whole stream. Each Rotate must also report exactly the
// packets its window received.
func CheckRotateLinearity(g Geometry, w *Workload, ref *core.Sketch, windows, shards int) error {
	sh, err := newSharded(g, shards)
	if err != nil {
		return err
	}
	parts := w.Windows(windows)
	var closed []*fcm.Sketch
	for i, p := range parts {
		for _, k := range p.Keys {
			sh.Update(k, 1)
		}
		if i < len(parts)-1 {
			c, packets := sh.Rotate()
			if packets != uint64(len(p.Keys)) {
				return fmt.Errorf("rotate(%d windows): window %d reported %d packets, want %d",
					windows, i, packets, len(p.Keys))
			}
			closed = append(closed, c)
		}
	}
	total := sh.Snapshot()
	for _, c := range closed {
		if err := total.Merge(c); err != nil {
			return fmt.Errorf("merging closed window: %w", err)
		}
	}
	return requireEqual(fmt.Sprintf("rotate(%d windows)", windows), ref, total.Core())
}

// rootSaturated reports whether any root-stage counter sits at its counting
// capacity. Once that happens the sketch may have clamped (by update or by
// merge) and estimates can legitimately fall below the exact count, so
// one-sidedness stops being assertable. The check is conservative — a root
// that landed exactly on capacity without clamping also returns true —
// which is the right trade for a harness that must never report false
// divergence.
func rootSaturated(s *core.Sketch) bool {
	for _, stages := range s.Census() {
		if stages[len(stages)-1].Overflowed > 0 {
			return true
		}
	}
	return false
}

// oracleOf replays w into the exact tracker.
func oracleOf(w *Workload) *exact.Tracker {
	tr := exact.New()
	for _, kb := range w.Keys {
		var k packet.Key
		copy(k.Buf[:], kb)
		k.Len = uint8(len(kb))
		tr.UpdateKey(k, 1)
	}
	return tr
}

// CheckOracle scores the sketch against the exact oracle: every estimate
// must be one-sided (never below the true count — Theorem 5.1's premise),
// the recorded total must be conserved per tree (no packets lost below the
// root saturation point), and, when maxAvgRelErr ≥ 0, the mean relative
// error over distinct flows must not exceed it.
func CheckOracle(g Geometry, w *Workload, ref *core.Sketch, maxAvgRelErr float64) error {
	if rootSaturated(ref) {
		// The workload pushed some root counter to capacity: estimates may
		// clamp below the truth, which is saturation semantics, not a
		// divergence. Bit-exactness across paths is still enforced by the
		// other checks.
		return nil
	}
	tr := oracleOf(w)
	var relSum float64
	var flows int
	var oneSidedErr error
	tr.Flows(func(k packet.Key, want uint64) {
		if oneSidedErr != nil {
			return
		}
		got := ref.Estimate(k.Bytes())
		if got < want {
			oneSidedErr = fmt.Errorf("estimate for %s underestimates: %d < exact %d", k.String(), got, want)
			return
		}
		relSum += float64(got-want) / float64(want)
		flows++
	})
	if oneSidedErr != nil {
		return oneSidedErr
	}
	// Total-count conservation: saturation clamps at the root, so only
	// assert when the stream could not have saturated the root stage.
	rootCap := ref.StageMax(len(g.Widths) - 1)
	if uint64(w.NumPackets()) <= rootCap {
		for t := 0; t < ref.NumTrees(); t++ {
			if got, want := ref.TotalCount(t), uint64(w.NumPackets()); got != want {
				return fmt.Errorf("tree %d total count %d, oracle saw %d packets", t, got, want)
			}
		}
	}
	if maxAvgRelErr >= 0 && flows > 0 {
		if are := relSum / float64(flows); are > maxAvgRelErr {
			return fmt.Errorf("average relative error %.4f exceeds bound %.4f (%d flows)",
				are, maxAvgRelErr, flows)
		}
	}
	return nil
}

// CheckAll runs the full differential battery for one (geometry, workload)
// pair: serial reference, then batch, sharded, engine-batcher, PISA,
// codec, rotation, SWAR-vs-scalar merge and oracle checks. Parameters that
// need variety (batch size, shard count) derive from the trial seed.
func CheckAll(g Geometry, w *Workload, seed int64) error {
	ref, err := Serial(g, w)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	batch := 1 + int(uint64(seed)%511)
	shards := 1 + int((uint64(seed)>>16)%7)
	windows := 2 + int((uint64(seed)>>32)%3)
	if err := CheckBatchEqualsSerial(g, w, ref, batch); err != nil {
		return err
	}
	if err := CheckShardedEqualsSerial(g, w, ref, shards); err != nil {
		return err
	}
	if err := CheckEngineBatcherEqualsSerial(g, w, ref, shards, batch); err != nil {
		return err
	}
	if err := CheckPisaEqualsSerial(g, w, ref); err != nil {
		return err
	}
	if err := CheckCodecRoundTrip(g, ref); err != nil {
		return err
	}
	if err := CheckRotateLinearity(g, w, ref, windows, shards); err != nil {
		return err
	}
	if err := CheckSWARMergeEqualsScalar(g, w); err != nil {
		return err
	}
	return CheckOracle(g, w, ref, -1)
}
