// The benchmark's workloads. Each one sets itself up from the seed,
// records setup_s when it reaches its first timed operation (and returns
// there under --setup-only), then measures for the configured seconds
// and fills the report: end-to-end metrics untraced, or per-layer
// metrics plus the tracing overhead under --trace 1.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// One tenant re-running the Fig. 11 word count over a 100k-word corpus
/// snapshot through a ThreadManager, closed loop.
void runWordcountBatch(const RunConfig& config, Clock::time_point processStart,
                       Report& report);

/// A SessionServer kept at 200 live tenants of the recoverable mix,
/// closed loop. Traced, a second server with checkpoints every 4 frames
/// follows, for the checkpoint layers.
void runClassroom(const RunConfig& config, Clock::time_point processStart,
                  Report& report);

}  // namespace perfbench
