// Umbrella header: the full public API of the topkmon library.
//
//   #include "topkmon.h"
//
// pulls in the monitoring engines (TMA, SMA, TSL, brute force), the
// Section 7 extensions (constrained queries, threshold monitoring, update
// streams), the skyline monitor, the synthetic workload generators and
// the simulation driver. Individual headers can be included directly for
// faster builds.

#ifndef TOPKMON_TOPKMON_H_
#define TOPKMON_TOPKMON_H_

#include "common/geometry.h"
#include "common/record.h"
#include "common/scoring.h"
#include "common/status.h"
#include "core/brute_force_engine.h"
#include "core/engine.h"
#include "core/piecewise.h"
#include "core/query.h"
#include "core/simulation.h"
#include "core/skyband.h"
#include "core/skyline_monitor.h"
#include "core/sma_engine.h"
#include "core/threshold_monitor.h"
#include "core/tma_engine.h"
#include "core/topk_compute.h"
#include "core/update_stream_engine.h"
#include "stream/generators.h"
#include "stream/record_pool.h"
#include "stream/sliding_window.h"
#include "stream/update_stream.h"
#include "tsl/tsl_engine.h"

#endif  // TOPKMON_TOPKMON_H_
