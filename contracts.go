package fcm

import "github.com/fcmsketch/fcm/internal/sketch"

// Compile-time checks that the public types satisfy the shared sketch
// contracts of internal/sketch. The experiment harness, the collection
// path and the sharded engine consume these interfaces rather than
// concrete types, so a regression here is a build failure, not a runtime
// surprise.
var (
	_ sketch.Sketch       = (*Sketch)(nil)
	_ sketch.BatchUpdater = (*Sketch)(nil)
	_ sketch.Mergeable    = (*Sketch)(nil)

	_ sketch.Sketch    = (*TopKSketch)(nil)
	_ sketch.Mergeable = (*TopKSketch)(nil)

	_ sketch.Sketch       = (*Sharded)(nil)
	_ sketch.BatchUpdater = (*Sharded)(nil)
	_ sketch.Mergeable    = (*Sharded)(nil)

	_ sketch.Updater              = (*Framework)(nil)
	_ sketch.Estimator            = (*Framework)(nil)
	_ sketch.CardinalityEstimator = (*Framework)(nil)
)
