package collect

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
)

// ClientConfig configures a collection client. Zero fields take the
// defaults below.
type ClientConfig struct {
	// Addr is the collection server address (required).
	Addr string
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// IOTimeout is the per-operation read/write deadline (default 5s).
	// Every frame write and frame read gets a fresh deadline, so a
	// black-holed server costs at most one IOTimeout per attempt.
	IOTimeout time.Duration
	// MaxRetries is how many extra attempts idempotent reads get after a
	// transport failure (default 0: single attempt). Each retry redials.
	// Resets are never retried by the client: a reset whose response was
	// lost may already have rotated the window, and re-sending it would
	// silently discard a window of data.
	MaxRetries int
	// BackoffBase and BackoffMax shape the capped exponential backoff
	// between retries (defaults 10ms and 1s); each sleep adds up to 50%
	// seeded jitter so synchronized collectors decorrelate.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// JitterSeed seeds the backoff jitter PRNG; 0 means 1, keeping
	// retry schedules deterministic for tests.
	JitterSeed int64
	// Dial overrides the transport (e.g. to wrap connections with a
	// fault injector). nil means net.DialTimeout("tcp", ...).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Delta once chose between the v2 and v3 read protocols.
	//
	// Deprecated: ignored; every read speaks codec v3.
	Delta bool
	// SessionID identifies this client in the server's delta session
	// store (every client occupies one session slot, LRU-bounded by the
	// server's MaxSessions). 0 draws a process-unique ID; set it
	// explicitly when several controller processes poll the same switch
	// (colliding IDs are safe — they just evict each other's baselines
	// into full-snapshot fallbacks).
	SessionID uint64
	// Logger receives structured recovery records (redials, retries,
	// decode failures); nil discards them.
	Logger *slog.Logger
}

const (
	defaultDialTimeout = 5 * time.Second
	defaultIOTimeout   = 5 * time.Second
	defaultBackoffBase = 10 * time.Millisecond
	defaultBackoffMax  = time.Second
)

func (c ClientConfig) withDefaults() ClientConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = defaultDialTimeout
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = defaultIOTimeout
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = defaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = defaultBackoffMax
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return c
}

// ServerError is a status-error response from the server: the transport
// worked, the request was rejected. Retrying it cannot help.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "collect: server error: " + e.Msg }

// ClientStats count the client's recovery actions.
type ClientStats struct {
	// Dials counts connection establishments (first dial and redials).
	Dials uint64
	// Retries counts retried idempotent reads.
	Retries uint64
	// DecodeFailures counts responses that framed cleanly but failed
	// decoding (e.g. CRC mismatch from a corrupting link).
	DecodeFailures uint64
	// DeltasApplied counts delta frames applied to the local baseline.
	DeltasApplied uint64
	// FullSnapshots counts full snapshots received on the v3 path (first
	// poll and every fallback the server chose).
	FullSnapshots uint64
	// DeltaFallbacks counts client-side baseline invalidations: a delta
	// arrived that could not be applied safely (unknown base generation,
	// state-CRC mismatch, out-of-range block), so the baseline was
	// discarded and the next request asked for a full snapshot.
	DeltaFallbacks uint64
}

// Client pulls snapshots from a Server over a reused connection. It
// reconnects transparently after transport failures and retries
// idempotent reads with capped exponential backoff. Methods must not be
// called concurrently (a Poller or a CLI drives one client).
type Client struct {
	cfg ClientConfig
	rng *rand.Rand // backoff jitter; guarded by mu

	mu   sync.Mutex // guards conn handoff against Close
	conn net.Conn

	dials          uint64
	retries        uint64
	decodeFailures uint64
	deltasApplied  uint64
	fullSnapshots  uint64
	deltaFallbacks uint64

	// Delta baseline (guarded by mu so InvalidateDeltaState may be called
	// from another goroutine): the last snapshot whose generation the
	// server has — or will, on our next request — see acked.
	baseline     *Snapshot
	baselineGen  uint64
	haveBaseline bool

	log *slog.Logger
}

// nextSessionID hands out process-unique default delta session IDs.
var nextSessionID atomic.Uint64

// NewClient builds a client. The connection is established lazily on the
// first operation (and re-established after failures).
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("collect: client needs an address")
	}
	cfg = cfg.withDefaults()
	if cfg.SessionID == 0 {
		cfg.SessionID = nextSessionID.Add(1)
	}
	return &Client{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.JitterSeed)),
		log: telemetry.OrNop(cfg.Logger),
	}, nil
}

// Close closes the connection (if any). The client stays usable: the
// next operation redials.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// Stats returns the client's recovery counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{
		Dials:          c.dials,
		Retries:        c.retries,
		DecodeFailures: c.decodeFailures,
		DeltasApplied:  c.deltasApplied,
		FullSnapshots:  c.fullSnapshots,
		DeltaFallbacks: c.deltaFallbacks,
	}
}

// InvalidateDeltaState discards the client's delta baseline, as if the
// acked generation had been lost: the next read declares no baseline and
// receives a full snapshot (counted by the server as a no_baseline
// fallback). Chaos tests use it to inject generation loss; it is also the
// escape hatch if a baseline is ever suspected stale. Safe to call
// concurrently with reads.
func (c *Client) InvalidateDeltaState() {
	c.mu.Lock()
	c.baseline, c.baselineGen, c.haveBaseline = nil, 0, false
	c.mu.Unlock()
}

// ReadSketch fetches a register snapshot, retrying per the config.
func (c *Client) ReadSketch() (*Snapshot, error) {
	return c.ReadSketchContext(context.Background())
}

// ReadSketchContext is ReadSketch bounded by ctx: cancellation interrupts
// an in-flight network operation (the connection deadline is yanked), so
// callers regain control within one operation, not one timeout. It speaks
// codec v3: only the registers changed since the last acked snapshot
// cross the wire, or a full snapshot on any baseline mismatch, and the
// returned snapshot is always complete. A server that rejects OpReadDelta
// answers with a non-retriable *ServerError.
//
// The request is rebuilt per attempt: an attempt that invalidated the
// baseline (bad delta) must ask for a full snapshot on its retry, not
// re-request the same doomed delta. Decoding happens inside the retry
// loop, so a frame that fails its CRC in transit is an attempt failure
// like any other.
func (c *Client) ReadSketchContext(ctx context.Context) (*Snapshot, error) {
	var snap *Snapshot
	err := c.call(ctx, func() []byte {
		c.mu.Lock()
		req := encodeReadDelta(c.cfg.SessionID, c.haveBaseline, c.baselineGen)
		c.mu.Unlock()
		return req
	}, true, func(payload []byte) error {
		dsp := tracing.FromContext(ctx).StartSpan("decode")
		frame, err := DecodeDeltaFrame(payload)
		if err != nil {
			dsp.Fail(err)
			dsp.End()
			return err
		}
		dsp.Annotate("bytes", strconv.Itoa(len(payload)))
		dsp.End()
		asp := tracing.FromContext(ctx).StartSpan("delta.apply")
		defer asp.End()
		s, err := c.applyDeltaFrame(frame)
		if err != nil {
			// The error text names the fallback reason (generation
			// mismatch, bad block, state-CRC disagreement); the span keeps
			// it next to the attempt that triggered the full-snapshot
			// re-request.
			asp.Annotate("fallback", "baseline_invalidated")
			asp.Fail(err)
			return err
		}
		if frame.Full {
			asp.Annotate("kind", "full")
		} else {
			asp.Annotate("kind", "delta")
		}
		snap = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// applyDeltaFrame folds one decoded delta frame into the baseline, in
// place, and returns a copy of the complete snapshot it represents (the
// caller's to keep: it shares nothing with the baseline). Any inconsistency —
// a delta against a generation we do not hold, a block outside the
// geometry, a post-apply state CRC that disagrees with the server's —
// invalidates the baseline and errors, so the retry (or next poll)
// requests a full snapshot. Wrong merges are structurally impossible: the
// state CRC covers every register of the reconstructed snapshot.
func (c *Client) applyDeltaFrame(frame *DeltaFrame) (*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if frame.Full {
		c.fullSnapshots++
		c.baseline = frame.Snap.Clone()
		c.baselineGen = frame.NewGen
		c.haveBaseline = true
		return frame.Snap, nil
	}
	if !c.haveBaseline || frame.BaseGen != c.baselineGen {
		c.deltaFallbacks++
		haveGen, had := c.baselineGen, c.haveBaseline
		c.baseline, c.haveBaseline = nil, false
		return nil, fmt.Errorf("collect: delta against generation %d, baseline is %d (have=%v)",
			frame.BaseGen, haveGen, had)
	}
	// The blocks scatter into the baseline itself; a bad block or a state
	// CRC mismatch discards it, so a partial apply is never built on.
	if err := c.baseline.applyBlocks(frame.Blocks); err != nil {
		c.deltaFallbacks++
		c.baseline, c.haveBaseline = nil, false
		return nil, err
	}
	if got := c.baseline.StateCRC(); got != frame.StateCRC {
		c.deltaFallbacks++
		c.baseline, c.haveBaseline = nil, false
		return nil, fmt.Errorf("collect: state CRC after delta 0x%08x, server pinned 0x%08x",
			got, frame.StateCRC)
	}
	c.deltasApplied++
	c.baselineGen = frame.NewGen
	return c.baseline.Clone(), nil
}

// ResetSketch clears the data plane's registers (window rotation). It is
// never retried — see ClientConfig.MaxRetries.
func (c *Client) ResetSketch() error {
	return c.ResetSketchContext(context.Background())
}

// ResetSketchContext is ResetSketch bounded by ctx.
func (c *Client) ResetSketchContext(ctx context.Context) error {
	return c.call(ctx, func() []byte { return []byte{OpResetSketch} }, false, nil)
}

// call runs one request with the retry policy, rebuilding the request
// bytes per attempt (reads mutate their own baseline state on failure, so
// the retry must re-ask from current state). decode, when non-nil,
// validates the response payload; a decode failure counts as an attempt
// failure — the connection that produced it is dropped (its fault
// may be persistent, e.g. a corrupting link) and idempotent requests
// retry. On exhaustion the error joins every attempt's failure, so a
// flapping link, a CRC rejection, and a timeout in the same read are all
// diagnosable from the one message.
func (c *Client) call(ctx context.Context, buildReq func() []byte, idempotent bool, decode func([]byte) error) error {
	attempts := 1
	if idempotent {
		attempts += c.cfg.MaxRetries
	}
	var attemptErrs []error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.retries++
			c.mu.Unlock()
			c.log.Debug("retrying read",
				"attempt", attempt, "max", attempts-1, "last_err", attemptErrs[len(attemptErrs)-1])
			if err := c.backoff(ctx, attempt); err != nil {
				return errors.Join(append(attemptErrs, err)...)
			}
		}
		asp := tracing.FromContext(ctx).StartSpan("client.attempt")
		asp.Annotate("attempt", strconv.Itoa(attempt+1))
		payload, err := c.attempt(ctx, buildReq())
		if err == nil && decode != nil {
			if derr := decode(payload); derr != nil {
				c.mu.Lock()
				c.decodeFailures++
				c.mu.Unlock()
				c.log.Warn("response decode failed, dropping connection", "err", derr)
				c.dropCurrent()
				err = derr
			}
		}
		if err == nil {
			asp.End()
			return nil
		}
		asp.Fail(err)
		asp.End()
		attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: %w", attempt+1, err))
		var se *ServerError
		if errors.As(err, &se) || ctx.Err() != nil {
			// Deterministic rejection or caller cancellation: retrying
			// cannot help.
			return errors.Join(attemptErrs...)
		}
	}
	return errors.Join(attemptErrs...)
}

// backoff sleeps the capped exponential delay for the given retry
// attempt (1-based), with up to 50% seeded jitter, honoring ctx.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.cfg.BackoffBase << uint(attempt-1)
	if attempt > 16 || d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	t := time.NewTimer(d + jitter)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ensureConn returns the live connection, dialing if needed.
func (c *Client) ensureConn(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dsp := tracing.FromContext(ctx).StartSpan("client.dial")
	dsp.Annotate("addr", c.cfg.Addr)
	conn, err := c.cfg.Dial(c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		err = fmt.Errorf("collect: dial %s: %w", c.cfg.Addr, err)
		dsp.Fail(err)
		dsp.End()
		return nil, err
	}
	dsp.End()
	c.mu.Lock()
	c.conn = conn
	dials := c.dials + 1
	c.dials = dials
	c.mu.Unlock()
	if dials > 1 {
		c.log.Debug("reconnected to collection server", "addr", c.cfg.Addr, "dials", dials)
	}
	return conn, nil
}

// dropConn discards a connection after a transport failure so the next
// attempt redials.
func (c *Client) dropConn(conn net.Conn) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.mu.Unlock()
	conn.Close() //nolint:errcheck // already failed
}

// dropCurrent discards whatever connection is live right now (used when a
// response decoded badly: the connection itself may be the fault).
func (c *Client) dropCurrent() {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		conn.Close() //nolint:errcheck // being discarded
	}
}

// attempt performs one framed request/response exchange under per-op
// deadlines, interruptible by ctx.
func (c *Client) attempt(ctx context.Context, req []byte) ([]byte, error) {
	conn, err := c.ensureConn(ctx)
	if err != nil {
		return nil, err
	}
	// Cancellation watchdog: yank the deadline so blocked I/O returns
	// immediately instead of waiting out IOTimeout.
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				conn.SetDeadline(time.Unix(1, 0)) //nolint:errcheck // unblocking teardown
			case <-stop:
			}
		}()
	}
	conn.SetWriteDeadline(c.opDeadline(ctx)) //nolint:errcheck // enforced by the write
	if err := writeFrame(conn, req); err != nil {
		c.dropConn(conn)
		return nil, c.ctxErr(ctx, fmt.Errorf("collect: sending request: %w", err))
	}
	conn.SetReadDeadline(c.opDeadline(ctx)) //nolint:errcheck
	resp, err := readFrame(conn)
	if err != nil {
		c.dropConn(conn)
		return nil, c.ctxErr(ctx, fmt.Errorf("collect: reading response: %w", err))
	}
	payload, err := parseResponse(resp)
	if err != nil {
		// Either a server rejection (the server closes its side after
		// any error) or a corrupt status byte (stream untrustworthy):
		// drop the connection in both cases.
		c.dropConn(conn)
		return nil, err
	}
	return payload, nil
}

// opDeadline is the per-operation deadline: IOTimeout from now, tightened
// by the context's own deadline if that is sooner.
func (c *Client) opDeadline(ctx context.Context) time.Time {
	dl := time.Now().Add(c.cfg.IOTimeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(dl) {
		dl = cd
	}
	return dl
}

// ctxErr prefers the context's error once it fired: a deadline-exceeded
// I/O error caused by the cancellation watchdog reports as cancellation.
func (c *Client) ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// parseResponse splits a response payload into status and body. The
// status byte must be exactly statusOK or statusErr — anything else is
// stream corruption, not a server verdict.
func parseResponse(resp []byte) ([]byte, error) {
	if len(resp) < 1 {
		return nil, errors.New("collect: empty response")
	}
	switch resp[0] {
	case statusOK:
		return resp[1:], nil
	case statusErr:
		return nil, &ServerError{Msg: string(resp[1:])}
	default:
		return nil, fmt.Errorf("collect: corrupt status byte 0x%02x", resp[0])
	}
}
