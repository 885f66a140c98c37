package difftest

import (
	"encoding/binary"
	"fmt"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/window"
)

// The window-ops state machine interprets a byte string as a program over
// the temporal layer: a live window.Ring driven in lockstep with a
// reference model — one serial core.Sketch per closed window plus one for
// the live window, and one map-of-exact-counts oracle per window. Queries
// fold the reference windows through MergeScalar (the harness's scalar
// walk), so every ring answer — produced by the word-wide SWAR fold over
// possibly coarsened buckets — is checked bit-for-bit against a scalar
// fold of the exact covering windows, at every lookback depth, and
// one-sided against the summed per-window oracles.
//
// Opcodes (one byte, operands follow):
//
//	0x00 key inc  — Update(key, 1+inc%16) on ring and reference
//	0x01 n        — UpdateBatch of the next n%32+1 derived keys, inc 1
//	0x02          — Rotate: close the live window on both sides
//	0x03          — Coarsen: force one ring compaction (reference unchanged:
//	                coarsening must not alter any fold)
//	0x04          — Audit: at every lookback 1..windows, ring fold ==
//	                scalar fold of the covering windows and Coverage's
//	                packets == the oracle's packets over those windows;
//	                plus the full fold with the live window included
//	0x05 key      — QueryOverTime(key): equals the scalar fold's estimate
//	                and is one-sided against the summed oracles
//	0x06 key n    — Saturation burst: Update(key, (1+n)·8192), driving
//	                lane saturation through rotation and coarsening merges
//
// Anything else is a no-op, so every byte string is a valid program.

// wmMaxWindows caps rotations per program: each audit folds every
// lookback, so cost is quadratic in windows.
const wmMaxWindows = 24

// windowMachine is the lockstep state.
type windowMachine struct {
	g      Geometry
	ring   *window.Ring
	closed []*core.Sketch // reference: one serial sketch per closed window
	live   *core.Sketch
	// oracles[i] is the exact per-flow count of closed window i;
	// oracleLive covers the live window.
	oracles    []map[uint32]uint64
	oracleLive map[uint32]uint64
	keybuf     [4]byte
}

// key derives the 4-byte key for flow id f (masked small so collisions
// and overflow are common).
func (m *windowMachine) key(f byte) []byte {
	binary.BigEndian.PutUint32(m.keybuf[:], uint32(f%24)^0x5eed)
	return m.keybuf[:]
}

// update applies one increment to ring, reference and oracle.
func (m *windowMachine) update(k []byte, inc uint64) error {
	if err := m.ring.Update(k, inc); err != nil {
		return err
	}
	m.live.Update(k, inc)
	m.oracleLive[binary.BigEndian.Uint32(k)] += inc
	return nil
}

// rotate closes the live window on both sides.
func (m *windowMachine) rotate() error {
	if err := m.ring.Rotate(); err != nil {
		return err
	}
	m.closed = append(m.closed, m.live)
	m.oracles = append(m.oracles, m.oracleLive)
	live, err := m.g.NewCore()
	if err != nil {
		return err
	}
	m.live = live
	m.oracleLive = make(map[uint32]uint64)
	return nil
}

// scalarFold folds reference windows [from..to] (1-based, inclusive)
// through MergeScalar, with the live reference appended when withLive.
// A [0,0] range means "no closed windows covered" (live-only fold).
func (m *windowMachine) scalarFold(from, to uint64, withLive bool) (*core.Sketch, error) {
	sk, err := m.g.NewCore()
	if err != nil {
		return nil, err
	}
	for gen := from; gen != 0 && gen <= to; gen++ {
		if int(gen) > len(m.closed) {
			return nil, fmt.Errorf("coverage generation %d outside 1..%d", gen, len(m.closed))
		}
		if err := MergeScalar(sk, m.closed[gen-1]); err != nil {
			return nil, err
		}
	}
	if withLive {
		if err := MergeScalar(sk, m.live); err != nil {
			return nil, err
		}
	}
	return sk, nil
}

// oraclePackets sums the oracle's packets over closed windows [from..to]
// (1-based, inclusive; [0,0] covers none), plus the live window when
// withLive.
func (m *windowMachine) oraclePackets(from, to uint64, withLive bool) uint64 {
	var n uint64
	add := func(counts map[uint32]uint64) {
		for _, c := range counts {
			n += c
		}
	}
	for gen := from; gen != 0 && gen <= to; gen++ {
		add(m.oracles[gen-1])
	}
	if withLive {
		add(m.oracleLive)
	}
	return n
}

// audit checks the ring fold against the scalar reference fold at every
// lookback depth, then the full fold with the live window. Each fold's
// Coverage must also count exactly the packets the oracle sent into the
// covered windows.
func (m *windowMachine) audit(step int) error {
	for lb := 1; lb <= len(m.closed); lb++ {
		got, cov, err := m.ring.SnapshotOverTime(window.LastWindows(lb))
		if err != nil {
			return fmt.Errorf("step %d: lookback %d: %v", step, lb, err)
		}
		if cov.Windows < lb {
			return fmt.Errorf("step %d: lookback %d ceiling covered only %d windows", step, lb, cov.Windows)
		}
		if cov.LastGeneration != uint64(len(m.closed)) {
			return fmt.Errorf("step %d: lookback %d newest covered generation %d, want %d",
				step, lb, cov.LastGeneration, len(m.closed))
		}
		ref, err := m.scalarFold(cov.FirstGeneration, cov.LastGeneration, false)
		if err != nil {
			return fmt.Errorf("step %d: lookback %d reference: %v", step, lb, err)
		}
		if d := ref.FirstRegisterDiff(got); d != "" {
			return fmt.Errorf("step %d: lookback %d (covering [%d,%d]) diverged from scalar fold: %s",
				step, lb, cov.FirstGeneration, cov.LastGeneration, d)
		}
		if want := m.oraclePackets(cov.FirstGeneration, cov.LastGeneration, false); cov.Packets != want {
			return fmt.Errorf("step %d: lookback %d covers %d packets, oracle sent %d", step, lb, cov.Packets, want)
		}
	}
	// Full fold including the live window.
	got, cov, err := m.ring.SnapshotOverTime(window.LastWindows(0).WithLive())
	if err != nil {
		if err == window.ErrEmpty && len(m.closed) == 0 {
			return nil
		}
		return fmt.Errorf("step %d: live fold: %v", step, err)
	}
	var from, to uint64
	if len(m.closed) > 0 {
		from, to = cov.FirstGeneration, cov.LastGeneration
	}
	ref, err := m.scalarFold(from, to, true)
	if err != nil {
		return fmt.Errorf("step %d: live fold reference: %v", step, err)
	}
	if d := ref.FirstRegisterDiff(got); d != "" {
		return fmt.Errorf("step %d: live fold diverged from scalar fold: %s", step, d)
	}
	if want := m.oraclePackets(from, to, true); cov.Packets != want {
		return fmt.Errorf("step %d: live fold covers %d packets, oracle sent %d", step, cov.Packets, want)
	}
	return nil
}

// queryKey checks QueryOverTime against the scalar fold and the summed
// oracles for one key, over the full live-inclusive lookback.
func (m *windowMachine) queryKey(step int, k []byte) error {
	est, cov, err := m.ring.QueryOverTime(k, window.LastWindows(0).WithLive())
	if err != nil {
		if err == window.ErrEmpty && len(m.closed) == 0 {
			return nil
		}
		return fmt.Errorf("step %d: query: %v", step, err)
	}
	var from, to uint64
	if len(m.closed) > 0 {
		from, to = cov.FirstGeneration, cov.LastGeneration
	}
	ref, err := m.scalarFold(from, to, true)
	if err != nil {
		return err
	}
	if want := ref.Estimate(k); est != want {
		return fmt.Errorf("step %d: QueryOverTime(%x) = %d, scalar fold says %d", step, k, est, want)
	}
	if rootSaturated(ref) {
		return nil
	}
	var exact uint64
	f := binary.BigEndian.Uint32(k)
	for gen := from; gen != 0 && gen <= to; gen++ {
		exact += m.oracles[gen-1][f]
	}
	exact += m.oracleLive[f]
	if est < exact {
		return fmt.Errorf("step %d: QueryOverTime(%x) underestimates: %d < exact %d", step, k, est, exact)
	}
	return nil
}

// RunWindowOps executes program over the lockstep window machine and
// returns the first broken invariant, or nil. It is the body of
// FuzzWindowOps and is also replayed over the checked-in corpus.
func RunWindowOps(program []byte) error {
	if len(program) == 0 {
		return nil
	}
	g := smGeometries[int(program[0])%len(smGeometries)]
	program = program[1:]
	shards := 1 + len(program)%4
	spanCap := 1 + len(program)%3
	ring, err := window.New(window.Config{
		Sketch:     g.FCMConfig(),
		Shards:     shards,
		SpanCap:    spanCap,
		MaxWindows: 4 * wmMaxWindows, // retention never truncates the reference
		Now:        fakeClock(),
	})
	if err != nil {
		return fmt.Errorf("building ring: %w", err)
	}
	live, err := g.NewCore()
	if err != nil {
		return fmt.Errorf("building live reference: %w", err)
	}
	m := &windowMachine{g: g, ring: ring, live: live, oracleLive: make(map[uint32]uint64)}

	steps := 0
	for i := 0; i < len(program) && steps < 512; steps++ {
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
			if err := m.update(m.key(arg()), uint64(1+arg()%16)); err != nil {
				return err
			}
		case 0x01:
			n := int(arg())%32 + 1
			keys := make([][]byte, 0, n)
			for j := 0; j < n; j++ {
				kb := make([]byte, 4)
				copy(kb, m.key(arg()))
				keys = append(keys, kb)
				m.oracleLive[binary.BigEndian.Uint32(kb)]++
			}
			if err := m.ring.UpdateBatch(keys, 1); err != nil {
				return err
			}
			m.live.UpdateBatch(keys, 1)
		case 0x02:
			if len(m.closed) >= wmMaxWindows {
				continue
			}
			if err := m.rotate(); err != nil {
				return err
			}
		case 0x03:
			m.ring.Coarsen()
		case 0x04:
			if err := m.audit(steps); err != nil {
				return err
			}
		case 0x05:
			if err := m.queryKey(steps, m.key(arg())); err != nil {
				return err
			}
		case 0x06:
			if err := m.update(m.key(arg()), uint64(1+arg())*8192); err != nil {
				return err
			}
		}
	}
	// Terminal audit regardless of how the program ended.
	return m.audit(steps)
}
