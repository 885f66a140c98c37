package window

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/em"
)

// QueryResponse is the JSON shape of GET /debug/overtime: the coverage
// actually folded plus whichever answers the query parameters selected.
type QueryResponse struct {
	Coverage    Coverage     `json:"coverage"`
	Cardinality float64      `json:"cardinality"`
	Key         string       `json:"key,omitempty"`
	Estimate    *uint64      `json:"estimate,omitempty"`
	Entropy     *float64     `json:"entropy,omitempty"`
	FSDHead     []float64    `json:"fsd_head,omitempty"`
	Buckets     []BucketInfo `json:"buckets"`
}

// Handler serves over-time queries from the ring:
//
//	GET /debug/overtime?windows=8            last 8 closed windows
//	GET /debug/overtime?duration=1m&live=1   trailing minute incl. live window
//	GET /debug/overtime?windows=8&key=<hex>  adds the per-flow estimate
//	GET /debug/overtime?windows=8&em=5       adds entropy + FSD head (EM rounds)
//	GET /debug/overtime?windows=8&format=frames
//
// format=frames streams the covering buckets as codec "FCMW" window
// frames (collect.EncodeWindow) instead of JSON, so a controller can pull
// the raw windows and re-fold them itself.
func Handler(r *Ring) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		lb, err := parseLookback(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.URL.Query().Get("format") == "frames" {
			serveFrames(w, r, lb)
			return
		}
		// Validate the optional parameters before folding anything.
		var key []byte
		keyHex := req.URL.Query().Get("key")
		if keyHex != "" {
			key, err = hex.DecodeString(keyHex)
			if err != nil {
				http.Error(w, "bad key hex: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		emIters := 0
		if emStr := req.URL.Query().Get("em"); emStr != "" {
			emIters, err = strconv.Atoi(emStr)
			if err != nil || emIters < 1 || emIters > 64 {
				http.Error(w, "em must be 1..64 iterations", http.StatusBadRequest)
				return
			}
		}
		// One fold answers every field: cardinality, the per-key estimate
		// and the EM distribution all derive from the same covering-bucket
		// set, so the response is internally consistent even when a Rotate
		// races the request — and the O(log n) fold cost is paid once, not
		// once per field.
		resp := QueryResponse{Buckets: r.Buckets()}
		v, cov, err := r.read(lb)
		resp.Coverage = cov
		switch {
		case err == nil:
			resp.Cardinality = v.sk.Cardinality()
			if key != nil {
				est := v.sk.Estimate(key)
				resp.Key = keyHex
				resp.Estimate = &est
			}
			if emIters > 0 {
				res, emErr := em.RunSketch(v.sk, &em.Options{Iterations: emIters})
				if emErr != nil {
					r.done(v)
					http.Error(w, emErr.Error(), http.StatusInternalServerError)
					return
				}
				dist := res.Dist
				h := em.Entropy(dist)
				resp.Entropy = &h
				if len(dist) > 17 {
					dist = dist[:17]
				}
				resp.FSDHead = dist
			}
			r.done(v)
		case err == ErrEmpty:
			// Coverage and ring occupancy still describe the (empty) ring.
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// Headers are gone; nothing useful left to do.
			return
		}
	})
}

// parseLookback reads windows=/duration=/live= query parameters.
func parseLookback(req *http.Request) (Lookback, error) {
	q := req.URL.Query()
	var lb Lookback
	if s := q.Get("windows"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return lb, fmt.Errorf("windows must be a non-negative integer")
		}
		lb.Windows = n
	}
	if s := q.Get("duration"); s != "" {
		if lb.Windows != 0 {
			return lb, fmt.Errorf("set windows or duration, not both")
		}
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			return lb, fmt.Errorf("bad duration %q", s)
		}
		lb.Duration = d
		lb.IncludeLive = true
	}
	if s := q.Get("live"); s != "" {
		on, err := strconv.ParseBool(s)
		if err != nil {
			return lb, fmt.Errorf("bad live flag %q", s)
		}
		lb.IncludeLive = on
	}
	return lb, nil
}

// serveFrames streams the covering buckets as FCMW frames, oldest first.
func serveFrames(w http.ResponseWriter, r *Ring, lb Lookback) {
	frames, err := r.ExportFrames(lb)
	if err != nil && err != ErrEmpty {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, f := range frames {
		if _, err := w.Write(f); err != nil {
			return
		}
	}
}

// ExportFrames encodes the lookback's covering buckets (closed windows
// only — frames carry closed-window metadata) as codec "FCMW" frames,
// oldest first. The live window is never framed: it has no final
// maxTime/generation yet.
func (r *Ring) ExportFrames(lb Lookback) ([][]byte, error) {
	r.mu.Lock()
	covering := r.coveringLocked(lb)
	r.mu.Unlock()
	defer r.unpin(covering)
	if len(covering) == 0 {
		return nil, ErrEmpty
	}
	frames := make([][]byte, 0, len(covering))
	for _, b := range covering {
		meta := collect.WindowMeta{
			Level:           uint8(b.level),
			Span:            uint32(b.span),
			FirstGeneration: b.firstGen,
			Generation:      b.lastGen,
			MinTimeUnixNano: b.minTime.UnixNano(),
			MaxTimeUnixNano: b.maxTime.UnixNano(),
			Packets:         b.packets,
		}
		frame, err := collect.EncodeWindow(meta, collect.TakeSnapshot(b.sk))
		if err != nil {
			return nil, fmt.Errorf("window: encoding bucket [%d,%d]: %w", b.firstGen, b.lastGen, err)
		}
		frames = append(frames, frame)
	}
	return frames, nil
}
