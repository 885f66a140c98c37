package difftest

import (
	"encoding/binary"
	"fmt"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/core"
)

// The sketch-ops state machine interprets an arbitrary byte string as a
// program over three lockstep implementations — a serial core.Sketch, an
// fcm.Sharded, and a scalar-merge twin that routes every merge through
// MergeScalar instead of the word-wide path — plus an exact oracle. After
// every mutating op the machine can be asked (by the program itself) to
// compare the sharded snapshot and the scalar twin against the serial
// sketch bit-for-bit and to re-validate the oracle's one-sidedness, so any
// interleaving of Update/Merge/Rotate/Snapshot/Reset that breaks
// equivalence — including a SWAR merge diverging from the scalar
// reference — is a fuzzing counterexample.
//
// Opcodes (one byte, operands follow):
//
//	0x00 key inc  — Update(key, 1+inc%16) on all paths
//	0x01 n        — UpdateBatch of the next n%32+1 derived keys, inc 1
//	0x02          — Snapshot: sharded merge and scalar twin must equal serial
//	0x03          — Rotate: closed window must equal serial; all restart
//	0x04 key inc  — Merge a side sketch holding one flow into all paths
//	0x05          — Reset all paths and the oracle
//	0x06 key      — Estimate: all paths agree and are ≥ the oracle
//	0x07 key n    — Saturation burst: Update(key, (1+n)·8192), driving the
//	                byte lane across its 254 boundary immediately and the
//	                uint16 lane across 65534 within a few repeats
//
// Anything else is a no-op, so every byte string is a valid program.

// smGeometries is the geometry table programs index with their first byte.
// Shapes are tiny so fuzz executions stay microseconds while still
// overflowing into every stage. The {8,16,32} entry is the paper's
// hardware layout at fuzz scale: its stages sit in three different lane
// widths, so the 254/65534 saturation boundaries of the compact storage
// are reachable by the burst opcode.
var smGeometries = []Geometry{
	{K: 2, Trees: 2, Widths: []int{2, 4, 8}, LeafWidth: 8, Seed: 1},
	{K: 2, Trees: 1, Widths: []int{3, 5}, LeafWidth: 8, Seed: 2},
	{K: 4, Trees: 2, Widths: []int{2, 5, 9}, LeafWidth: 16, Seed: 3},
	{K: 2, Trees: 2, Widths: []int{2, 4, 8}, LeafWidth: 8, Seed: 4, PerTreeHash: true},
	{K: 2, Trees: 2, Widths: []int{8, 16, 32}, LeafWidth: 8, Seed: 5},
}

// machine holds the lockstep state.
type machine struct {
	g      Geometry
	serial *core.Sketch
	// scalar sees the identical op stream but merges via MergeScalar: any
	// divergence from serial is a word-wide merge kernel bug.
	scalar *core.Sketch
	shard  *fcm.Sharded
	oracle map[uint32]uint64
	keybuf [4]byte
}

// checkScalar compares the scalar-merge twin against the serial sketch.
func (m *machine) checkScalar(step int) error {
	if d := m.serial.FirstRegisterDiff(m.scalar); d != "" {
		return fmt.Errorf("step %d: word merge diverged from scalar twin: %s", step, d)
	}
	return nil
}

// oneSidedOK reports whether one-sidedness is assertable: once any root
// counter sits at its counting capacity the sketch may have clamped (by
// update or by merge) and estimates can legitimately drop below the
// oracle. The check is conservative — a root that landed exactly on the
// capacity without clamping also disables the assertion — which is the
// right trade for a fuzzer that must never report false divergence.
func (m *machine) oneSidedOK() bool {
	return !rootSaturated(m.serial)
}

// key derives the 4-byte key for flow id f (masked small so collisions and
// overflow are common).
func (m *machine) key(f byte) []byte {
	binary.BigEndian.PutUint32(m.keybuf[:], uint32(f%24)^0x5eed)
	return m.keybuf[:]
}

// RunSketchOps executes program over the lockstep machine and returns the
// first broken invariant, or nil. It is the body of FuzzSketchOps and is
// also replayed over the checked-in corpus by the unit suite.
func RunSketchOps(program []byte) error {
	if len(program) == 0 {
		return nil
	}
	g := smGeometries[int(program[0])%len(smGeometries)]
	program = program[1:]

	serial, err := g.NewCore()
	if err != nil {
		return fmt.Errorf("building serial sketch: %w", err)
	}
	scalar, err := g.NewCore()
	if err != nil {
		return fmt.Errorf("building scalar-merge twin: %w", err)
	}
	shards := 1 + len(program)%4
	sh, err := newSharded(g, shards)
	if err != nil {
		return fmt.Errorf("building sharded sketch: %w", err)
	}
	m := &machine{g: g, serial: serial, scalar: scalar, shard: sh, oracle: make(map[uint32]uint64)}

	steps := 0
	for i := 0; i < len(program) && steps < 4096; steps++ {
		op := program[i]
		i++
		arg := func() byte {
			if i < len(program) {
				b := program[i]
				i++
				return b
			}
			return 0
		}
		switch op {
		case 0x00:
			k, inc := m.key(arg()), uint64(1+arg()%16)
			m.serial.Update(k, inc)
			m.scalar.Update(k, inc)
			m.shard.Update(k, inc)
			m.oracle[binary.BigEndian.Uint32(k)] += inc
		case 0x01:
			n := int(arg())%32 + 1
			keys := make([][]byte, 0, n)
			for j := 0; j < n; j++ {
				kb := make([]byte, 4)
				copy(kb, m.key(arg()))
				keys = append(keys, kb)
				m.oracle[binary.BigEndian.Uint32(kb)]++
			}
			m.serial.UpdateBatch(keys, 1)
			m.scalar.UpdateBatch(keys, 1)
			m.shard.UpdateBatch(keys, 1)
		case 0x02:
			if d := m.serial.FirstRegisterDiff(m.shard.Snapshot().Core()); d != "" {
				return fmt.Errorf("step %d: snapshot diverged from serial: %s", steps, d)
			}
			if err := m.checkScalar(steps); err != nil {
				return err
			}
		case 0x03:
			closed, _ := m.shard.Rotate()
			if d := m.serial.FirstRegisterDiff(closed.Core()); d != "" {
				return fmt.Errorf("step %d: rotated window diverged from serial: %s", steps, d)
			}
			if err := m.checkScalar(steps); err != nil {
				return err
			}
			m.serial.Reset()
			m.scalar.Reset()
			clear(m.oracle)
		case 0x04:
			side, err := m.g.NewCore()
			if err != nil {
				return err
			}
			k, inc := m.key(arg()), uint64(1+arg()%16)
			side.Update(k, inc)
			if err := m.serial.Merge(side); err != nil {
				return fmt.Errorf("step %d: serial merge: %w", steps, err)
			}
			if err := MergeScalar(m.scalar, side); err != nil {
				return fmt.Errorf("step %d: scalar twin merge: %w", steps, err)
			}
			sideFCM, err := fcm.NewSketch(fcm.Config{
				K: m.g.K, Trees: m.g.Trees, Widths: m.g.Widths, LeafWidth: m.g.LeafWidth,
				Seed: m.g.Seed, PerTreeHash: m.g.PerTreeHash,
			})
			if err != nil {
				return err
			}
			sideFCM.Update(k, inc)
			if err := m.shard.MergeFrom(sideFCM); err != nil {
				return fmt.Errorf("step %d: sharded merge: %w", steps, err)
			}
			m.oracle[binary.BigEndian.Uint32(k)] += inc
		case 0x05:
			m.serial.Reset()
			m.scalar.Reset()
			m.shard.Reset()
			clear(m.oracle)
		case 0x06:
			k := m.key(arg())
			se, he := m.serial.Estimate(k), m.shard.Estimate(k)
			if se != he {
				return fmt.Errorf("step %d: estimate for %x: serial %d vs sharded %d", steps, k, se, he)
			}
			if want := m.oracle[binary.BigEndian.Uint32(k)]; se < want && m.oneSidedOK() {
				return fmt.Errorf("step %d: estimate for %x underestimates: %d < exact %d", steps, k, se, want)
			}
		case 0x07:
			// Saturation burst: a single large increment crosses the byte
			// lane's 254 capacity immediately; repeats walk the uint16 lane
			// to 65534 and onward to the root.
			k, inc := m.key(arg()), uint64(1+arg())*8192
			m.serial.Update(k, inc)
			m.scalar.Update(k, inc)
			m.shard.Update(k, inc)
			m.oracle[binary.BigEndian.Uint32(k)] += inc
		}
	}

	// Terminal audit: full bit-exactness plus oracle one-sidedness over
	// every flow the program touched.
	if d := m.serial.FirstRegisterDiff(m.shard.Snapshot().Core()); d != "" {
		return fmt.Errorf("final state diverged from serial: %s", d)
	}
	if d := m.serial.FirstRegisterDiff(m.scalar); d != "" {
		return fmt.Errorf("final word-merge state diverged from scalar twin: %s", d)
	}
	if m.oneSidedOK() {
		var kb [4]byte
		for f, want := range m.oracle {
			binary.BigEndian.PutUint32(kb[:], f)
			if got := m.serial.Estimate(kb[:]); got < want {
				return fmt.Errorf("final estimate for %x underestimates: %d < exact %d", kb, got, want)
			}
		}
	}
	return nil
}
