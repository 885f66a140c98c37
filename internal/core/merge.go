package core

import "fmt"

// Merge folds another sketch into s. Both must have identical geometry and
// identical hash functions (same family and seed); the hash requirement
// cannot be verified here and is the caller's contract.
//
// The merge is exact: because every node's state is a pure function of the
// counts it received, and received counts add under stream concatenation,
// the merged sketch is bit-identical to one that ingested both streams.
// Per node (bottom-up): the combined count is the two absorbed counts plus
// the carry from merged children; if either source overflowed or the
// combined count exceeds the capacity, the node is marked and only the
// *new* excess is carried up — the sources' own excesses already live in
// their parents, which merge at the next level.
//
// This makes FCM-Sketch practical for network-wide monitoring: per-switch
// (or per-shard) sketches collect independently and merge in the control
// plane.
//
// The implementation folds whole 64-bit lane words at a time (see swar.go)
// and borrows its carry buffers from a small shared cache, so
// steady-state merges perform no allocations and the merged sketch keeps
// no scratch. The
// differential harness holds it bit-identical to an independent
// register-at-a-time walk over the exported register view.
func (s *Sketch) Merge(o *Sketch) error {
	if err := s.Compatible(o); err != nil {
		return err
	}
	carry := takeCarry()
	last := len(s.widths) - 1
	for ti := range s.trees {
		a, b := s.trees[ti], o.trees[ti]
		// in is nil at the leaves (no child stage) and whenever the level
		// below promoted nothing, which lets the block loop skip the carry
		// test entirely.
		var in *carryBuf
		for l := 0; l <= last; l++ {
			var out *carryBuf
			if l < last {
				out = &carry[l&1]
			}
			produced := s.mergeStage(a, b, l, in, out)
			if in != nil {
				clear(in.bits[:(a.stageLen(l)+63)/64])
			}
			in = nil
			if produced {
				in = out
			}
		}
	}
	// Not deferred: a pair a panicking merge left dirty must not be reused.
	returnCarry(carry)
	return nil
}

// CopyFrom overwrites s's registers with o's. Merging into an empty
// sketch is the identity, so this is exactly Reset followed by Merge(o),
// at memcpy cost and without allocating. o must pass Compatible; when it
// does not, CopyFrom returns that error and leaves s untouched. Telemetry
// attachments are not copied.
func (s *Sketch) CopyFrom(o *Sketch) error {
	if err := s.Compatible(o); err != nil {
		return err
	}
	for i, t := range s.trees {
		ot := o.trees[i]
		copy(t.lane8, ot.lane8)
		copy(t.lane16, ot.lane16)
		copy(t.lane32, ot.lane32)
	}
	return nil
}

// Compatible reports why o cannot merge into s — a different geometry,
// counter encoding, hash mode or one-pass hash seed — or nil when it can.
// Per-tree hasher equality stays the caller's contract (see Merge).
func (s *Sketch) Compatible(o *Sketch) error {
	if o == nil {
		return fmt.Errorf("core: merge with nil sketch")
	}
	if s.k != o.k || s.w1 != o.w1 || len(s.trees) != len(o.trees) {
		return fmt.Errorf("core: merge geometry mismatch: k=%d/%d w1=%d/%d trees=%d/%d",
			s.k, o.k, s.w1, o.w1, len(s.trees), len(o.trees))
	}
	if len(s.widths) != len(o.widths) {
		return fmt.Errorf("core: merge depth mismatch: %d vs %d", len(s.widths), len(o.widths))
	}
	for i := range s.widths {
		if s.widths[i] != o.widths[i] {
			return fmt.Errorf("core: merge width mismatch at stage %d: %d vs %d",
				i, s.widths[i], o.widths[i])
		}
	}
	for i := range s.trees {
		if s.trees[i].mark[0] != o.trees[i].mark[0] {
			return fmt.Errorf("core: merge encoding mismatch (flag-bit vs marker)")
		}
	}
	// One-pass and per-tree hashing place counters differently, and two
	// wide hashers only agree when their seeds do. (Per-tree hasher
	// equality remains unverifiable, as documented above.)
	sw, ow := s.wide, o.wide
	switch {
	case (sw == nil) != (ow == nil):
		return fmt.Errorf("core: merge hash-mode mismatch (one-pass vs per-tree)")
	case sw != nil && sw.Seed() != ow.Seed():
		return fmt.Errorf("core: merge hash-seed mismatch")
	}
	return nil
}
