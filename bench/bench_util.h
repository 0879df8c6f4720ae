#ifndef DMRPC_BENCH_BENCH_UTIL_H_
#define DMRPC_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "msvc/workload.h"
#include "sim/simulation.h"

namespace dmrpc::bench {

/// Aligned-column table printer: each bench binary prints the rows/series
/// of the paper figure it regenerates in this format, so EXPERIMENTS.md
/// can quote them directly.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  /// Formats a double with `digits` decimals.
  static std::string Num(double v, int digits = 1);
  static std::string Int(uint64_t v);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Global knobs for bench runs, read from the environment:
///   DMRPC_BENCH_SCALE: multiplies measurement windows (default 1.0;
///     use 0.2 for a quick smoke run, 5 for tighter confidence).
struct BenchEnv {
  double scale = 1.0;

  static BenchEnv FromEnv();

  TimeNs Warmup(TimeNs base) const {
    return static_cast<TimeNs>(base * scale);
  }
  TimeNs Measure(TimeNs base) const {
    return static_cast<TimeNs>(base * scale);
  }
};

/// Standard one-line summary of a workload result.
std::string Summarize(const msvc::WorkloadResult& res);

/// Host cost of this process so far, from getrusage(RUSAGE_SELF): peak
/// resident set and CPU time in user and kernel mode.
struct HostUsage {
  double max_rss_mb = 0;
  double user_ms = 0;
  double sys_ms = 0;
};
HostUsage ReadHostUsage();

/// Machine-readable observability sidecar for bench binaries.
///
/// Every bench calls Arm() right after constructing each Simulation and
/// Record() once that simulation's run is over. On process exit the
/// collected per-run metrics dumps are written as one JSON file next to
/// the binary's working directory:
///
///   <bench>.metrics.json        {"bench": "...", "runs": {label: {...}}}
///
/// where <bench> is the executable name (override the full path with
/// DMRPC_METRICS_PATH). The file is rewritten after every Record() so
/// already-recorded runs survive a later scenario aborting the process.
///
/// Setting DMRPC_TRACE_DIR additionally enables the simulation's event
/// tracer and writes one sidecar per run under that directory (which
/// must exist):
///
///   <bench>_<label>.trace.jsonl     record dump, one JSON per line
///                                   (obs::Tracer::WriteJsonLines)
///
/// Setting DMRPC_TIMELINE_US=<interval in virtual microseconds> arms the
/// simulation's virtual-time timeline sampler (sim::Simulation::
/// EnableTimeline) and writes one more sidecar per run, under
/// DMRPC_TIMELINE_DIR if set, else the working directory:
///
///   <bench>_<label>.timeline.jsonl  one JSON object per sampled window
///                                   (obs::TimelineRecorder::ToJsonLines)
///
/// These are the only encodings a run writes. The other views are made
/// from them offline: `trace_analyze X.trace.jsonl` prints the
/// critical-path latency breakdown by layer and hop, and
/// `trace_analyze --chrome X.trace.jsonl [X.timeline.jsonl]` prints one
/// Chrome/Perfetto file with the spans, instants and counter tracks.
class BenchObs {
 public:
  /// Enables tracing on `sim` when DMRPC_TRACE_DIR is set.
  static void Arm(sim::Simulation* sim);

  /// Stores sim->DumpMetricsJson() under `label` (labels must be unique
  /// within a binary) and writes the run's trace and timeline sidecars,
  /// if armed.
  static void Record(const std::string& label, sim::Simulation* sim);
};

}  // namespace dmrpc::bench

#endif  // DMRPC_BENCH_BENCH_UTIL_H_
