// Shared types of the perfbench benchmark: one repetition of a workload
// (build the datacenter, run the load, tear it down) and what it yields.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"

namespace perfbench {

using dmrpc::TimeNs;

/// A per-layer or end-to-end figure as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Registry state at one edge of the measurement window.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauge_max;  // high-watermarks so far
  std::map<std::string, dmrpc::Histogram> timers;
  uint64_t events = 0;  // sim events executed so far
  double host_s = 0;    // steady-clock seconds since the repetition began
};

/// How one repetition is run.
struct RepConfig {
  /// Record spans (from the first arrival on) and analyze them in-process;
  /// KV also records its history for the serializability check.
  bool traced = false;
  /// Use the workload's short traced-pass window instead of the full one.
  bool short_window = false;
};

/// Outcome of every request that arrived in the measurement window,
/// recorded by the benchmark around the workload's request function.
struct Outcomes {
  uint64_t offered = 0;  // arrivals in the window, including refused ones
  uint64_t ok = 0;
  uint64_t failed = 0;  // errored, refused, or unfinished after the drain
  std::vector<int64_t> latencies_ns;  // successful requests only
};

/// Everything one repetition measured.
struct RepResult {
  // Virtual clock (deterministic per seed).
  Outcomes out;
  TimeNs window = 0;
  TimeNs slo_limit = 0;
  uint64_t fingerprint = 0;  // FNV-1a of DumpMetricsJson()

  // Host clock.
  double setup_s = 0;    // simulation start to first arrival
  double run_s = 0;      // first arrival to end of the measurement window
  double cluster_s = 0;  // cluster constructor
  double init_s = 0;     // InitAll / Init
  double load_s = 0;     // KvCluster::Load (kv only)

  // Window-scoped registry snapshots.
  Snapshot at_start, at_end;
  uint64_t frames_configured = 0;
  uint64_t frames_touched = 0;  // frames popped over the whole run

  // Traced pass only: virtual critical-path figures, trace bookkeeping.
  std::map<std::string, double> critical_path;
  uint64_t trace_records = 0;
  uint64_t trace_dropped = 0;
  /// Child spans that outlive their parent (ungated; see README.md).
  uint64_t trace_interval_violations = 0;
  std::string trace_interval_example;

  // Post-run checks (B+-tree invariants, serializability).
  std::vector<std::string> violations;
};

/// The workloads, by BENCHMARK.json name.
const std::vector<std::string>& WorkloadNames();

/// Independent simulation seeds a run of `workload` cycles through. Its
/// virtual metrics pool the requests of one window per seed.
size_t SeedsPerRun(const std::string& workload);

/// Runs one repetition of `workload` from `seed`.
RepResult RunRep(const std::string& workload, uint64_t seed,
                 const RepConfig& cfg);

/// Median of `v` (mean of the middle two for an even count).
double Median(std::vector<double> v);

/// Mean of `v` without its smallest and largest value (with three or
/// more values; the plain mean otherwise). Host times of repetitions
/// carry machine noise that is mostly symmetric, so this trimmed mean
/// spreads less from run to run than the median does, while one outlying
/// repetition still cannot pull it.
double TrimmedMean(std::vector<double> v);

/// Per-layer figures of a workload: window deltas and host times from the
/// untraced repetitions (`full`; set-up times as medians over them, run
/// times as trimmed means), critical-path shares from the traced repetition and trace overhead
/// from it against its untraced twin.
std::vector<Metric> LayerMetrics(const std::vector<RepResult>& full,
                                 const RepResult& traced,
                                 const RepResult& twin);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
