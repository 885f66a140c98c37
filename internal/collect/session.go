package collect

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
)

// Delta-protocol server state: per-client sessions and the OpReadDelta
// handler. The server promises exactly one thing — a client that applies
// the frames it is sent, in order, ends with registers bit-identical to a
// full snapshot. Everything here exists to keep that promise cheap in the
// common case (steady workload → small delta) and to degrade to a full
// snapshot the moment any assumption slips.

// session is one client's delta baseline bookkeeping. The server keeps two
// snapshots per session: the acked one (the newest state the client has
// confirmed holding, by echoing its generation) and the sent candidate
// (the last response, not yet confirmed — the frame or the next request
// may still be lost in flight). Deltas are only ever diffed against the
// acked snapshot, so a lost response costs one retransmitted delta, never
// a wrong merge.
type session struct {
	mu sync.Mutex

	haveAcked bool
	ackedGen  uint64
	acked     *Snapshot
	ackedCRC  uint32

	haveSent bool
	sentGen  uint64
	sent     *Snapshot
	sentCRC  uint32
}

// sessionStore maps session IDs to baselines with a bounded footprint:
// each session pins up to two snapshots, so the store LRU-evicts beyond
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
// hasBaseline(1), ackedGen(8).
const readDeltaReqLen = 19

// encodeReadDelta builds an OpReadDelta request.
func encodeReadDelta(sessionID uint64, hasBaseline bool, ackedGen uint64) []byte {
	req := make([]byte, readDeltaReqLen)
	req[0] = OpReadDelta
	binary.BigEndian.PutUint64(req[1:], sessionID)
	if hasBaseline {
		req[9] = 1
	}
	binary.BigEndian.PutUint64(req[10:], ackedGen)
	return req
}

// genSnapshot takes the source's snapshot together with its generation
// token. Equal generations imply bit-identical registers within one
// server lifetime, which is what enables the empty-delta fast path.
func (s *Server) genSnapshot() (*Snapshot, uint64) {
	sk, gen := s.src.Snapshot()
	if sk == nil {
		return nil, 0
	}
	return TakeSnapshot(sk), gen
}

// serveDelta handles one OpReadDelta request. A non-nil return means the
// connection is done (protocol violation or write failure) and must be
// closed — matching the v2 handlers, which close after any error status.
// tr (nil-safe) records the snapshot, diff, and write phases, and names
// the fallback reason when the response degraded to a full snapshot.
func (s *Server) serveDelta(conn net.Conn, req []byte, tr *tracing.Trace, scr *connScratch) error {
	if len(req) != readDeltaReqLen {
		msg := fmt.Sprintf("delta request of %dB, want %d", len(req), readDeltaReqLen)
		s.writeError(conn, msg) //nolint:errcheck // connection teardown follows
		return fmt.Errorf("collect: %s", msg)
	}
	sessionID := binary.BigEndian.Uint64(req[1:])
	hasBaseline := req[9] == 1
	ackedGen := binary.BigEndian.Uint64(req[10:])

	ssp := tr.StartSpan("snapshot")
	cur, curGen := s.genSnapshot()
	ssp.End()
	if cur == nil {
		s.writeError(conn, "no sketch available yet") //nolint:errcheck // teardown follows
		return fmt.Errorf("collect: source has no sketch yet")
	}

	sess := s.sessions.lookup(sessionID)
	sess.mu.Lock()
	// Ack promotion: the client echoing the generation of our unconfirmed
	// candidate proves that response arrived and was applied — the
	// candidate becomes the acked baseline. Echoing the already-acked
	// generation means our last response was lost; the acked baseline
	// stands and the delta below is a retransmission against it.
	if hasBaseline && sess.haveSent && sess.sentGen == ackedGen {
		sess.haveAcked = true
		sess.ackedGen, sess.acked, sess.ackedCRC = sess.sentGen, sess.sent, sess.sentCRC
		sess.haveSent, sess.sent = false, nil
	}

	dsp := tr.StartSpan("diff")
	frame := &DeltaFrame{NewGen: curGen}
	fallback := -1
	switch {
	case !hasBaseline:
		fallback = fbNoBaseline
	case !sess.haveAcked || sess.ackedGen != ackedGen:
		fallback = fbGenMismatch
	case !sess.acked.SameGeometry(cur):
		fallback = fbGeometry
	case curGen == ackedGen:
		// Nothing changed since the acked baseline (generation equality is
		// register equality within a server lifetime): the empty delta.
		frame.BaseGen = ackedGen
		frame.StateCRC = sess.ackedCRC
	default:
		blocks, ok := DiffSnapshots(sess.acked, cur)
		switch {
		case !ok:
			fallback = fbGeometry
		case deltaBlocksEncodedSize(blocks) >= deltaHeaderLen+cur.encodedSizeV2()+deltaTrailerLen:
			fallback = fbDeltaLarger
		default:
			frame.BaseGen = ackedGen
			frame.StateCRC = cur.StateCRC()
			frame.Blocks = blocks
		}
	}
	if fallback >= 0 {
		dsp.Annotate("fallback", fallbackReasons[fallback])
	}
	dsp.End()
	if fallback >= 0 {
		s.fallbacks[fallback].Add(1)
		frame.Full = true
		frame.BaseGen = 0
		frame.StateCRC = cur.StateCRC()
		frame.Snap = cur
	}
	// Record the candidate: if the client comes back echoing curGen, this
	// response arrived and cur becomes its acked baseline.
	sess.haveSent = true
	sess.sentGen, sess.sent, sess.sentCRC = curGen, cur, frame.StateCRC
	sess.mu.Unlock()

	esp := tr.StartSpan("encode")
	// The frame encodes into the connection's reusable response buffer
	// (the session retains cur itself, but never the encoded bytes).
	scr.resp = append(scr.resp[:0], statusOK)
	resp, err := frame.AppendEncode(scr.resp)
	if err != nil {
		esp.Fail(err)
		esp.End()
		s.writeError(conn, err.Error()) //nolint:errcheck // teardown follows
		return err
	}
	scr.resp = resp
	dataLen := len(resp) - 1
	esp.Annotate("bytes", fmt.Sprint(dataLen))
	esp.End()
	wsp := tr.StartSpan("write")
	err = s.writeFrameDeadline(conn, resp)
	if err != nil {
		wsp.Fail(err)
	}
	wsp.End()
	if err != nil {
		return err
	}
	s.deltaReads.Add(1)
	if frame.Full {
		s.fullWireBytes.Add(uint64(dataLen))
		s.log.Debug("full snapshot served (v3)",
			"peer", conn.RemoteAddr().String(), "session", sessionID,
			"reason", fallbackReasons[fallback], "bytes", dataLen, "gen", curGen)
	} else {
		s.deltaWireBytes.Add(uint64(dataLen))
		s.log.Debug("delta served",
			"peer", conn.RemoteAddr().String(), "session", sessionID,
			"blocks", len(frame.Blocks), "bytes", dataLen,
			"base_gen", frame.BaseGen, "gen", curGen)
	}
	return nil
}
