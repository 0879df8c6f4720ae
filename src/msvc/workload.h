#ifndef DMRPC_MSVC_WORKLOAD_H_
#define DMRPC_MSVC_WORKLOAD_H_

#include <functional>

#include "common/histogram.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace dmrpc::msvc {

/// Outcome of one load-generation run.
struct WorkloadResult {
  uint64_t offered = 0;    // requests issued in the measurement window
  uint64_t completed = 0;  // requests completed in the window
  uint64_t failed = 0;
  uint64_t bytes = 0;  // application payload bytes completed in-window
  TimeNs window = 0;   // measurement window length
  Histogram latency;   // per-request latency, ns

  double throughput_rps() const {
    if (window <= 0) return 0.0;
    return static_cast<double>(completed) * kSecond / window;
  }
  double throughput_gbps() const {
    if (window <= 0) return 0.0;
    return static_cast<double>(bytes) * 8.0 / window;
  }
};

/// One application request; returns OK and the payload byte count on
/// success (bytes feed throughput_gbps).
using RequestFn = std::function<sim::Task<StatusOr<uint64_t>>()>;

/// Drives a coroutine to completion, stepping the simulation, with a
/// virtual-time timeout. Intended for setup phases (Cluster::InitAll).
Status RunToCompletion(sim::Simulation* sim, sim::Task<Status> task,
                       TimeNs timeout = 10 * kSecond);

/// Callbacks fired exactly at the measurement-window edges (virtual
/// time), e.g. to reset and snapshot bandwidth meters.
struct WindowHooks {
  std::function<void()> on_measure_start;
  std::function<void()> on_measure_end;
};

/// Closed-loop load: `workers` concurrent callers issue back-to-back
/// requests for warmup + measure time; latencies and completions are
/// recorded during the measurement window only.
WorkloadResult RunClosedLoop(sim::Simulation* sim, const RequestFn& fn,
                             int workers, TimeNs warmup, TimeNs measure,
                             const WindowHooks& hooks = WindowHooks());

// Open-loop load lives in workload/openloop.h (workload::RunOpenLoopMulti):
// one or many independent arrival sources against one shared result.

}  // namespace dmrpc::msvc

#endif  // DMRPC_MSVC_WORKLOAD_H_
