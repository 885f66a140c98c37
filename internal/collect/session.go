package collect

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"slices"
	"strconv"
	"sync"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
)

// Delta-protocol server state: per-client sessions and the OpReadDelta
// handler. The server promises exactly one thing — a client that applies
// the frames it is sent, in order, ends with registers bit-identical to a
// full snapshot. Everything here exists to keep that promise cheap in the
// common case (steady workload → small delta) and to degrade to a full
// snapshot the moment any assumption slips.

// session is one client's delta baseline bookkeeping. The server keeps two
// register states per session: the acked one (the newest state the client
// has confirmed holding, by echoing its generation) and the sent candidate
// (the last response, not yet confirmed — the frame or the next request
// may still be lost in flight). Deltas are only ever diffed against the
// acked state, so a lost response costs one retransmitted delta, never a
// wrong merge.
type session struct {
	mu    sync.Mutex
	acked *heldState // nil until the client acks a response
	sent  *heldState // nil before the first response
}

// heldState is a register state a session holds: a sketch the source
// returned, its geometry, its stages in wire order and its state CRC. On
// a little-endian host the stages view the sketch's lanes in place
// (core's StageView), so holding a state copies nothing; on a big-endian
// host they are a copy in buf.
type heldState struct {
	sk     *core.Sketch
	geo    Snapshot // geometry only: Regs stays nil
	stages [][]byte // tree-major
	buf    []byte
	regs   int // register bytes over all stages
	gen    uint64
	crc    uint32
}

// hold makes h the state of sk, which the source returned at generation
// gen.
func (h *heldState) hold(sk *core.Sketch, gen uint64) {
	h.sk, h.gen = sk, gen
	geometryOf(&h.geo, sk)
	h.stages, h.buf, h.regs = h.stages[:0], h.buf[:0], 0
	for t := 0; t < h.geo.Trees; t++ {
		for l := range h.geo.Widths {
			v := sk.StageView(t, l)
			if v == nil {
				// Sized once, so no append below moves the stages
				// already taken.
				if n := sk.ResidentBytes(); cap(h.buf) < n {
					h.buf = make([]byte, 0, n)
				}
				at := len(h.buf)
				h.buf = sk.AppendStageBytes(h.buf, t, l)
				v = h.buf[at:]
			}
			h.stages = append(h.stages, v)
			h.regs += len(v)
		}
	}
}

// stateCRC is Snapshot.StateCRC of the held state.
func (h *heldState) stateCRC() uint32 {
	crc := h.geo.geometryCRC()
	for _, st := range h.stages {
		crc = crc32.Update(crc, castagnoli, st)
	}
	return crc
}

// sessionStore maps session IDs to baselines with a bounded footprint:
// each session pins up to two sketches, so the store LRU-evicts beyond
// MaxSessions. An evicted client is not broken — its next request misses
// the store, takes the gen_mismatch fallback, and receives a full
// snapshot that seeds a fresh baseline.
type sessionStore struct {
	mu    sync.Mutex
	max   int
	clock uint64
	byID  map[uint64]*storedSession
}

type storedSession struct {
	sess  *session
	touch uint64
}

func newSessionStore(max int) *sessionStore {
	return &sessionStore{max: max, byID: make(map[uint64]*storedSession)}
}

// lookup returns the session for id, creating (and LRU-evicting) as
// needed. The returned session has its own lock; the store lock is held
// only for the map operation.
func (st *sessionStore) lookup(id uint64) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.clock++
	if s, ok := st.byID[id]; ok {
		s.touch = st.clock
		return s.sess
	}
	if len(st.byID) >= st.max {
		var oldID uint64
		var oldest uint64 = ^uint64(0)
		for sid, s := range st.byID {
			if s.touch < oldest {
				oldest, oldID = s.touch, sid
			}
		}
		delete(st.byID, oldID)
	}
	s := &storedSession{sess: &session{}, touch: st.clock}
	st.byID[id] = s
	return s.sess
}

func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// Fallback reasons, indexed into Server's per-reason counters. Order is
// part of the stats surface (telemetry labels iterate it).
const (
	fbNoBaseline  = iota // client declared no baseline (first poll, or injected loss)
	fbGenMismatch        // client's acked generation is not the one we hold (eviction, restart)
	fbGeometry           // sketch geometry changed between baselines (reconfiguration)
	fbDeltaLarger        // honest delta would outweigh the full snapshot (e.g. post-reset churn)
	fbCount
)

// fallbackReasons names the reasons in counter order.
var fallbackReasons = [fbCount]string{"no_baseline", "gen_mismatch", "geometry", "delta_larger"}

// readDeltaReqLen is the OpReadDelta request: opcode(1), sessionID(8),
// hasBaseline(1), ackedGen(8), then one zero byte.
const readDeltaReqLen = 19

// appendReadDelta appends an OpReadDelta request to dst.
func appendReadDelta(dst []byte, sessionID uint64, hasBaseline bool, ackedGen uint64) []byte {
	has := uint8(0)
	if hasBaseline {
		has = 1
	}
	dst = append(dst, OpReadDelta)
	dst = binary.BigEndian.AppendUint64(dst, sessionID)
	dst = append(dst, has)
	dst = binary.BigEndian.AppendUint64(dst, ackedGen)
	return append(dst, 0)
}

// serveDelta handles one OpReadDelta request. A non-nil return means the
// connection is done (protocol violation or write failure) and must be
// closed — the server closes the connection after any error status.
// tr (nil-safe) records the snapshot, diff, encode and write phases, and
// names the fallback reason when the response degraded to a full snapshot.
//
// Everything up to the encoded response runs under the session's lock:
// the source copies its registers into the sketch the session releases,
// and the diff reads the acked and the new state in place while it writes
// the frame body into the connection's response buffer. Equal
// generations imply bit-identical registers within one server lifetime,
// which is what enables the empty-delta fast path.
func (s *Server) serveDelta(conn net.Conn, req []byte, tr *tracing.Trace, scr *connScratch) error {
	if len(req) != readDeltaReqLen {
		msg := fmt.Sprintf("delta request of %dB, want %d", len(req), readDeltaReqLen)
		s.writeError(conn, msg) //nolint:errcheck // connection teardown follows
		return fmt.Errorf("collect: %s", msg)
	}
	sessionID := binary.BigEndian.Uint64(req[1:])
	hasBaseline := req[9] == 1
	ackedGen := binary.BigEndian.Uint64(req[10:])

	sess := s.sessions.lookup(sessionID)
	sess.mu.Lock()
	// Ack promotion: the client echoing the generation of our unconfirmed
	// candidate proves that response arrived and was applied — the
	// candidate becomes the acked baseline. Echoing the already-acked
	// generation means our last response was lost; the acked baseline
	// stands and the delta below is a retransmission against it.
	//
	// Either way the request releases one state — the old acked one on
	// promotion, otherwise the sent candidate this request supersedes —
	// and the source copies the new registers into its sketch, so a
	// session holds at most two sketches and a steady one builds none.
	released := sess.sent
	if hasBaseline && sess.sent != nil && sess.sent.gen == ackedGen {
		released, sess.acked = sess.acked, sess.sent
	}
	sess.sent = nil
	ssp := tr.StartSpan("snapshot")
	cur := released
	if cur == nil {
		cur = &heldState{}
	}
	sk, curGen := s.snapshotInto(cur.sk)
	if sk == nil {
		sess.mu.Unlock()
		ssp.End()
		s.writeError(conn, "no sketch available yet") //nolint:errcheck // teardown follows
		return fmt.Errorf("collect: source has no sketch yet")
	}
	cur.hold(sk, curGen)
	ssp.End()

	dsp := tr.StartSpan("diff")
	// The response goes out in one write: its frame prefix, patched by
	// sendFrame, and the status byte lead the encoded frame.
	buf := append(frameStart(scr.resp), statusOK)
	start := len(buf)
	acked, fallback, blocks := sess.acked, -1, 0
	switch {
	case !hasBaseline:
		fallback = fbNoBaseline
	case acked == nil || acked.gen != ackedGen:
		fallback = fbGenMismatch
	case !acked.geo.sameLayout(&cur.geo):
		fallback = fbGeometry
	case curGen == ackedGen:
		// Nothing changed since the acked baseline (generation equality is
		// register equality within a server lifetime): the empty delta.
		cur.crc = acked.crc
		buf = appendFrameHeader(buf, false, ackedGen, curGen, cur.crc)
		buf = binary.BigEndian.AppendUint32(buf, 0)
	default:
		// Bounded slots keep the response buffer under a full frame; a
		// range dense enough to outgrow its slot sends the full frame.
		// The new state's CRC, which either response pins, runs beside
		// the diff's ranges.
		buf = appendFrameHeader(buf, false, ackedGen, curGen, 0)
		var ok bool
		buf, blocks, ok = scr.diff.appendDiff(buf, scr.stagePairs(acked, cur), nil, true, func() { cur.crc = cur.stateCRC() })
		clear(scr.pairs)
		if !ok || len(buf)-start+deltaTrailerLen >= fullFrameLen(&cur.geo, cur.regs) {
			fallback = fbDeltaLarger
		} else {
			binary.BigEndian.PutUint32(buf[start+24:], cur.crc)
		}
	}
	if fallback >= 0 {
		dsp.Annotate("fallback", fallbackReasons[fallback])
	}
	dsp.End()
	esp := tr.StartSpan("encode")
	if fallback >= 0 {
		s.fallbacks[fallback].Add(1)
		if fallback != fbDeltaLarger {
			cur.crc = cur.stateCRC()
		}
		buf = slices.Grow(buf[:start], fullFrameLen(&cur.geo, cur.regs))
		buf = appendFrameHeader(buf, true, 0, curGen, cur.crc)
		buf = appendFullBody(buf, &cur.geo, cur.stages)
	}
	buf = finishFrame(buf, start)
	// Record the candidate: if the client comes back echoing curGen, this
	// response arrived and cur becomes its acked baseline.
	sess.sent = cur
	sess.mu.Unlock()
	dataLen := len(buf) - start
	esp.Annotate("bytes", strconv.Itoa(dataLen))
	esp.End()
	wsp := tr.StartSpan("write")
	err := s.sendFrameDeadline(conn, buf)
	// The connection keeps a delta's buffer for its next read, not a full
	// frame's: that one is the size of the registers, and full frames are
	// the first read and the fallbacks.
	scr.resp = buf
	if fallback >= 0 {
		scr.resp = nil
	}
	if err != nil {
		wsp.Fail(err)
	}
	wsp.End()
	if err != nil {
		return err
	}
	s.deltaReads.Add(1)
	if fallback >= 0 {
		s.fullWireBytes.Add(uint64(dataLen))
		s.log.Debug("full snapshot served",
			"peer", conn.RemoteAddr().String(), "session", sessionID,
			"reason", fallbackReasons[fallback], "bytes", dataLen, "gen", curGen)
	} else {
		s.deltaWireBytes.Add(uint64(dataLen))
		s.log.Debug("delta served",
			"peer", conn.RemoteAddr().String(), "session", sessionID,
			"blocks", blocks, "bytes", dataLen,
			"base_gen", ackedGen, "gen", curGen)
	}
	return nil
}

// stagePairs pairs the stages of a session's acked state and the new
// one, in the connection's reused slice.
func (scr *connScratch) stagePairs(base, cur *heldState) []stagePair {
	depth := len(cur.geo.Widths)
	scr.pairs = scr.pairs[:0]
	for i, st := range cur.stages {
		l := i % depth
		scr.pairs = append(scr.pairs, stagePair{tree: i / depth, stage: l,
			size: core.LaneBytes(cur.geo.Widths[l]), a: base.stages[i], b: st})
	}
	return scr.pairs
}
