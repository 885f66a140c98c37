package collect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
)

// Wire protocol: every message is a 1-byte opcode framed request followed
// by a framed response. Frames are u32 big-endian length + payload; the
// response payload starts with a 1-byte status (0 = ok, 1 = error string).
//
// Opcode 1 was the codec v2 full read; it is retired and reserved — it
// must never be reused, and a peer that still sends it gets the ordinary
// "unknown opcode" error status and a closed connection.
const (
	// OpResetSketch clears the registers (window rotation).
	OpResetSketch = 2
	// OpReadDelta is the register read: it returns an FCMD delta frame
	// against the client's acked generation, or an embedded full snapshot
	// when no usable baseline exists or a delta would not be smaller.
	OpReadDelta = 3

	statusOK  = 0
	statusErr = 1

	// maxFrame bounds a frame to keep a rogue peer from exhausting
	// memory. Large sketches (tens of MB) still fit comfortably.
	maxFrame = 256 << 20

	// frameChunk is the allocation step while reading a frame body: a
	// lying length prefix on a short stream costs at most one chunk, not
	// the full claimed size.
	frameChunk = 1 << 20
)

// Source is the data plane the server collects from. Implementations
// provide copy-on-read snapshots: Snapshot returns a consistent copy the
// server owns, taken under the source's own short-lived synchronization,
// so collection never holds a lock across the encode or the network write
// and ingest is stalled for at most one register copy. Each snapshot
// carries a monotonic generation: equal generations imply bit-identical
// registers within one process lifetime. The delta protocol uses the
// generation as its ack token and as the unchanged-sketch fast path (an
// empty delta with no diff pass at all). engine.Engine (sharded
// multi-writer ingest), LockedSketch (single-writer fallback) and
// Aggregator all satisfy it.
type Source interface {
	// Snapshot returns a consistent register copy the caller owns,
	// together with the generation it was taken at. A nil sketch means
	// there is nothing to serve yet.
	Snapshot() (*core.Sketch, uint64)
	// Reset clears the registers (window rotation).
	Reset()
}

// intoSource is a Source that copies its registers into a sketch an
// earlier snapshot of it returned. The server's sessions hold the sketches
// their reads returned and diff them in place; each read hands the one its
// session releases back as the copy target, so a steady collection read
// copies the registers once and builds no sketch. engine.Engine and
// LockedSketch implement it.
type intoSource interface {
	SnapshotInto(dst *core.Sketch) (*core.Sketch, uint64)
}

// snapshotInto takes a snapshot of the source, into dst (nil or a sketch
// an earlier snapshot returned) when the source can copy into one.
func (s *Server) snapshotInto(dst *core.Sketch) (*core.Sketch, uint64) {
	if is, ok := s.src.(intoSource); ok {
		return is.SnapshotInto(dst)
	}
	return s.src.Snapshot()
}

// ServerConfig bounds server-side resource use so a slow, stalled, or
// malicious peer cannot pin a handler goroutine or exhaust descriptors.
// Zero fields take the defaults below.
type ServerConfig struct {
	// ReadTimeout is the per-frame read deadline once a frame header has
	// started arriving (default 10s).
	ReadTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (default 10s). A peer
	// that stops draining its socket loses the connection instead of
	// pinning the handler.
	WriteTimeout time.Duration
	// IdleTimeout is how long a connection may sit between requests
	// before the server closes it (default 2m).
	IdleTimeout time.Duration
	// MaxConns caps concurrently served connections (default 64). Excess
	// connections are accepted, counted, logged, and closed immediately —
	// the peer sees a clean transport failure and retries, instead of
	// sitting invisibly in the kernel backlog.
	MaxConns int
	// MaxSessions caps the delta-protocol session store (default 64). Each
	// session pins up to two register snapshots server-side; beyond the
	// cap the least-recently-used session is evicted, and its client
	// degrades to one full snapshot on its next poll.
	MaxSessions int
	// Logger receives structured lifecycle and failure records; nil
	// discards them.
	Logger *slog.Logger
	// Tracer, when non-nil, records one flight-recorder trace per served
	// request (snapshot copy, encode, write — and for deltas, the diff
	// and any fallback with its reason). nil costs one pointer check per
	// request.
	Tracer *tracing.Recorder
}

const (
	defaultReadTimeout  = 10 * time.Second
	defaultWriteTimeout = 10 * time.Second
	defaultIdleTimeout  = 2 * time.Minute
	defaultMaxConns     = 64
	defaultMaxSessions  = 64
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = defaultReadTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = defaultWriteTimeout
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = defaultIdleTimeout
	}
	if c.MaxConns <= 0 {
		c.MaxConns = defaultMaxConns
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = defaultMaxSessions
	}
	return c
}

// ServerStats are monotonic counters describing the server's health.
type ServerStats struct {
	// AcceptRetries counts accept-loop failures that triggered backoff.
	AcceptRetries uint64
	// Conns counts connections ever served.
	Conns uint64
	// Active is the number of connections being served right now.
	Active int64
	// Resets counts window rotations performed (OpResetSketch).
	Resets uint64
	// Errors counts requests answered with an error status.
	Errors uint64
	// RejectedConns counts connections closed at the MaxConns cap.
	RejectedConns uint64
	// DeltaReads counts register reads answered (OpReadDelta successes,
	// delta or embedded full).
	DeltaReads uint64
	// DeltaWireBytes and FullWireBytes are response payload bytes served
	// as deltas vs as embedded full snapshots: the bandwidth ledger the
	// delta protocol exists to improve.
	DeltaWireBytes uint64
	FullWireBytes  uint64
	// Fallbacks counts v3 requests that degraded to a full snapshot, by
	// reason (keys: no_baseline, gen_mismatch, geometry, delta_larger).
	Fallbacks map[string]uint64
	// Sessions is the current delta session count.
	Sessions int
}

// Server exposes a data plane's sketch registers over TCP so a controller
// can collect them in batch.
type Server struct {
	src      Source
	cfg      ServerConfig
	ln       net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}
	sem      chan struct{}
	sessions *sessionStore

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	acceptRetries  atomic.Uint64
	totalConns     atomic.Uint64
	activeConns    atomic.Int64
	rejectedConns  atomic.Uint64
	resets         atomic.Uint64
	reqErrors      atomic.Uint64
	deltaReads     atomic.Uint64
	deltaWireBytes atomic.Uint64
	fullWireBytes  atomic.Uint64
	fallbacks      [fbCount]atomic.Uint64

	log *slog.Logger
}

// NewServer starts serving the source on addr (use "127.0.0.1:0" for an
// ephemeral test port) with default timeouts and connection cap. The
// source may keep receiving updates; every read gets an independent
// copy-on-read snapshot.
func NewServer(addr string, src Source) (*Server, error) {
	return NewServerConfig(addr, src, ServerConfig{})
}

// NewServerConfig is NewServer with explicit resource bounds.
func NewServerConfig(addr string, src Source, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listen: %w", err)
	}
	return Serve(ln, src, cfg), nil
}

// Serve runs a collection server on an existing listener — the hook for
// wrapping the accept path (e.g. with faultnet's chaos listener). The
// server owns the listener and closes it on Close.
func Serve(ln net.Listener, src Source, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		src:      src,
		cfg:      cfg,
		ln:       ln,
		closed:   make(chan struct{}),
		sem:      make(chan struct{}, cfg.MaxConns),
		sessions: newSessionStore(cfg.MaxSessions),
		conns:    make(map[net.Conn]struct{}),
		log:      telemetry.OrNop(cfg.Logger),
	}
	s.log.Info("collect server listening",
		"addr", ln.Addr().String(), "max_conns", cfg.MaxConns)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns the server's counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		AcceptRetries:  s.acceptRetries.Load(),
		Conns:          s.totalConns.Load(),
		Active:         s.activeConns.Load(),
		Resets:         s.resets.Load(),
		Errors:         s.reqErrors.Load(),
		RejectedConns:  s.rejectedConns.Load(),
		DeltaReads:     s.deltaReads.Load(),
		DeltaWireBytes: s.deltaWireBytes.Load(),
		FullWireBytes:  s.fullWireBytes.Load(),
		Fallbacks:      make(map[string]uint64, fbCount),
		Sessions:       s.sessions.len(),
	}
	for i := range s.fallbacks {
		st.Fallbacks[fallbackReasons[i]] = s.fallbacks[i].Load()
	}
	return st
}

// LockedSketch adapts a single-writer sketch into a Source: the writer
// wraps updates in Lock/Unlock and the snapshot copy briefly takes the
// same lock. Every write path (Update, Unlock, Reset) advances the
// generation under that lock, so equal generations imply identical
// registers; a write that bypasses them is invisible to delta reads.
// Multi-writer pipelines should use engine.Engine instead,
// whose per-shard locks don't serialize the whole hot path.
type LockedSketch struct {
	mu  sync.Mutex
	sk  *core.Sketch
	gen uint64
}

// NewLockedSketch wraps a sketch with the single-writer lock discipline.
func NewLockedSketch(sk *core.Sketch) *LockedSketch { return &LockedSketch{sk: sk} }

// Lock serializes the writer against snapshot copies; hold it around
// Update calls.
func (l *LockedSketch) Lock() { l.mu.Lock() }

// Unlock releases the writer lock. It advances the generation, since the
// writer may have changed the registers while holding the lock.
func (l *LockedSketch) Unlock() {
	l.gen++
	l.mu.Unlock()
}

// Update records one update under the lock.
func (l *LockedSketch) Update(key []byte, inc uint64) {
	l.mu.Lock()
	l.sk.Update(key, inc)
	l.gen++
	l.mu.Unlock()
}

// Snapshot implements Source: the lock is held only for the copy.
func (l *LockedSketch) Snapshot() (*core.Sketch, uint64) {
	return l.SnapshotInto(nil)
}

// SnapshotInto is Snapshot copying into dst, a sketch an earlier snapshot
// returned (nil clones a new one); it returns dst.
func (l *LockedSketch) SnapshotInto(dst *core.Sketch) (*core.Sketch, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if dst == nil || dst.CopyFrom(l.sk) != nil {
		dst = l.sk.Clone()
	}
	return dst, l.gen
}

// Reset implements Source.
func (l *LockedSketch) Reset() {
	l.mu.Lock()
	l.sk.Reset()
	l.gen++
	l.mu.Unlock()
}

// Close stops the listener, tears down in-flight connections, and waits
// for their handlers. A stalled peer cannot delay shutdown past one
// in-flight operation.
func (s *Server) Close() error {
	close(s.closed)
	err := s.ln.Close()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close() //nolint:errcheck // teardown
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

// acceptBackoff is the capped exponential accept-failure backoff: 5ms
// doubling to 1s. Persistent failures (fd exhaustion, interface flap)
// poll at 1Hz instead of busy-spinning; a single transient error costs
// 5ms.
func acceptBackoff(consecutive int) time.Duration {
	const (
		base = 5 * time.Millisecond
		max  = time.Second
	)
	d := base << uint(consecutive-1)
	if consecutive > 8 || d > max {
		return max
	}
	return d
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	failures := 0
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Permanent: the listener is gone (Close, or the socket
			// itself died under us).
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-s.closed:
				return
			default:
			}
			// Transient (e.g. EMFILE, ECONNABORTED): back off instead of
			// busy-spinning, and stay responsive to Close.
			failures++
			s.acceptRetries.Add(1)
			s.log.Warn("accept failed, backing off",
				"err", err, "consecutive", failures, "backoff", acceptBackoff(failures))
			t := time.NewTimer(acceptBackoff(failures))
			select {
			case <-t.C:
			case <-s.closed:
				t.Stop()
				return
			}
			continue
		}
		failures = 0
		// Connection cap: accepted but over MaxConns means an immediate,
		// counted, logged close — a visible transport failure the peer's
		// retry loop handles, never a silent stall in the kernel backlog.
		// No error frame is sent: a status error is a permanent rejection
		// to the client (non-retryable ServerError), and being at capacity
		// is transient.
		select {
		case s.sem <- struct{}{}:
		default:
			s.rejectedConns.Add(1)
			s.log.Warn("connection rejected at connection cap",
				"peer", conn.RemoteAddr().String(), "max_conns", s.cfg.MaxConns)
			conn.Close() //nolint:errcheck // rejected
			continue
		}
		s.totalConns.Add(1)
		s.activeConns.Add(1)
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				s.activeConns.Add(-1)
				<-s.sem
			}()
			defer conn.Close()
			s.serve(conn)
		}()
	}
}

// connScratch is the per-connection reuse arena for the serve path: the
// response buffer a delta read encodes into and the diff's bookkeeping.
// It lives for the connection, so a steady poller costs no buffer
// allocations after its first delta. Register states are not scratch —
// sessions retain them as baselines across polls.
type connScratch struct {
	resp  []byte
	diff  bodyDiff
	pairs []stagePair
}

// serve handles one connection until EOF, error, or deadline.
func (s *Server) serve(conn net.Conn) {
	var scr connScratch
	for {
		req, err := readFrameServer(conn, s.cfg.IdleTimeout, s.cfg.ReadTimeout)
		if err != nil {
			return
		}
		if len(req) < 1 {
			s.writeError(conn, "empty request") //nolint:errcheck // connection teardown follows
			return
		}
		switch req[0] {
		case OpReadDelta:
			tr := s.cfg.Tracer.StartTrace("serve.read_delta")
			tr.Root().Annotate("peer", conn.RemoteAddr().String())
			err := s.serveDelta(conn, req, tr, &scr)
			if err != nil {
				tr.Root().Fail(err)
			}
			tr.End()
			if err != nil {
				return
			}
		case OpResetSketch:
			tr := s.cfg.Tracer.StartTrace("serve.reset")
			tr.Root().Annotate("peer", conn.RemoteAddr().String())
			s.src.Reset()
			err := s.sendFrameDeadline(conn, append(frameStart(nil), statusOK))
			if err != nil {
				tr.Root().Fail(err)
			}
			tr.End()
			if err != nil {
				return
			}
			s.resets.Add(1)
			s.log.Debug("window rotated", "peer", conn.RemoteAddr().String())
		default:
			s.writeError(conn, fmt.Sprintf("unknown opcode %d", req[0])) //nolint:errcheck
			return
		}
	}
}

// sendFrameDeadline sends a frame built behind a reserved prefix (see
// sendFrame) under the server's write deadline.
func (s *Server) sendFrameDeadline(conn net.Conn, frame []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck // enforced by the write
	return sendFrame(conn, frame)
}

func (s *Server) writeError(conn net.Conn, msg string) error {
	s.reqErrors.Add(1)
	s.log.Warn("request rejected", "peer", conn.RemoteAddr().String(), "reason", msg)
	return s.sendFrameDeadline(conn, append(append(frameStart(nil), statusErr), msg...))
}

// readFrameServer reads one frame with two deadlines: idle while waiting
// for the header (between requests) and read once a frame is in flight.
func readFrameServer(conn net.Conn, idle, read time.Duration) ([]byte, error) {
	conn.SetReadDeadline(time.Now().Add(idle)) //nolint:errcheck // enforced by the read
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(read)) //nolint:errcheck
	return readFrameBody(conn, binary.BigEndian.Uint32(hdr[:]), nil)
}

// frameStart begins a frame in buf: a 4-byte length prefix for sendFrame
// to patch, then the payload is appended behind it.
func frameStart(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// sendFrame patches the length prefix of a frame begun with frameStart
// and sends the frame in one Write: with TCP_NODELAY, a separate prefix
// write would cost its own syscall and segment.
func sendFrame(w io.Writer, frame []byte) error {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

// readFrameInto receives one length-prefixed frame into buf's storage
// when it has the capacity.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return readFrameBody(r, binary.BigEndian.Uint32(hdr[:]), buf)
}

// readFrameBody reads an n-byte frame payload into buf's storage when it
// has the capacity, and otherwise in bounded chunks, so an oversized
// length prefix costs memory proportional to the bytes that actually
// arrive, not to the number the peer claims.
func readFrameBody(r io.Reader, n uint32, buf []byte) ([]byte, error) {
	if n > maxFrame {
		return nil, fmt.Errorf("collect: frame of %dB exceeds limit", n)
	}
	want := int(n)
	if cap(buf) >= want {
		payload := buf[:want]
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	// Too small a buf is dropped, not grown: append's growth would leave
	// a quarter more than the frame in a buffer the client keeps.
	var payload []byte
	for len(payload) < want {
		m := min(want-len(payload), frameChunk)
		off := len(payload)
		payload = slices.Grow(payload, m)[:off+m]
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return nil, err
		}
	}
	return payload, nil
}
