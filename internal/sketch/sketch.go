// Package sketch defines the small set of interfaces shared by every
// frequency-estimation structure in the repository, so the experiment
// harness, the ElasticSketch composition and the public API can treat
// FCM-Sketch and all baselines uniformly.
package sketch

// Updater ingests stream items. inc is the increment (1 for packet
// counting; the byte count for volume counting).
type Updater interface {
	Update(key []byte, inc uint64)
}

// BatchUpdater ingests many keys per call, amortizing per-call overheads
// (interface dispatch, lock acquisition, bounds setup) across the batch.
// Each key receives the same increment inc; the result is identical to
// calling Update once per key. Implementations must not retain the key
// slices — callers may reuse the backing buffers after the call returns.
type BatchUpdater interface {
	Updater
	UpdateBatch(keys [][]byte, inc uint64)
}

// Estimator answers point (count) queries.
type Estimator interface {
	Updater
	// Estimate returns the estimated count of key. Sketches in this
	// repository are one-sided overestimators except Count-Sketch.
	Estimate(key []byte) uint64
}

// Sized reports the structure's configured memory footprint in bytes
// (counter storage only, as the paper accounts memory).
type Sized interface {
	MemoryBytes() int
}

// CardinalityEstimator estimates the number of distinct keys seen.
type CardinalityEstimator interface {
	Cardinality() float64
}

// Resettable can be cleared for reuse across measurement windows.
type Resettable interface {
	Reset()
}

// Mergeable folds another structure of the same concrete type and
// configuration into the receiver. FCM-Sketch's merge is exact (§5 of the
// paper): the result is bit-identical to a structure that ingested both
// streams, which is what makes per-switch and per-shard collection
// composable. Other implementations (Count-Min, Count-Sketch) are exact
// too; compositions with a Top-K filter document their approximation.
type Mergeable interface {
	Estimator
	// MergeFrom folds other into the receiver. It fails when other is a
	// different concrete type or was built with a different
	// configuration (geometry or hash seeds).
	MergeFrom(other Estimator) error
}

// Sketch is the full data-plane contract satisfied by fcm.Sketch: ingest,
// point queries, cardinality, memory accounting and window reuse.
type Sketch interface {
	Estimator
	Sized
	CardinalityEstimator
	Resettable
}
