#ifndef DMRPC_OBS_SLO_H_
#define DMRPC_OBS_SLO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/timeline.h"

namespace dmrpc::obs {

class Tracer;

/// One service-level objective evaluated per timeline window.
///
/// Two shapes:
///  - kLatency: samples of `timer` are good when <= target_ns. The bad
///    count per window comes from the window's diffed quantile sketch
///    (Histogram::CountAtOrBelow), so it carries the sketch's ~3%
///    bucket error at the threshold.
///  - kRatio: `bad_counter`'s window delta over `total_counter`'s window
///    delta (drop rate over forwarded packets, aborts over begun txns).
///
/// The burn rate is the SRE-book quantity: (bad fraction) / (error
/// budget). Burning at exactly 1.0 exhausts the budget at the end of the
/// objective horizon; a window whose burn reaches `burn_threshold`
/// records a breach.
struct SloObjective {
  enum class Kind { kLatency, kRatio };

  std::string name;  // sidecar/trace label, e.g. "rpc_call_p99"
  Kind kind = Kind::kLatency;

  // kLatency:
  std::string timer;      // e.g. "rpc.call"
  TimeNs target_ns = 0;   // good when sample <= target

  // kRatio:
  std::string bad_counter;    // e.g. "net.switch.dropped"
  std::string total_counter;  // e.g. "net.switch.forwarded"

  /// Error budget: the tolerated bad fraction (0.001 = 99.9% objective).
  double budget = 0.001;
  /// Burn rate at or above which a window counts as a breach.
  double burn_threshold = 1.0;

  static SloObjective Latency(std::string name, std::string timer,
                              TimeNs target_ns, double budget = 0.001,
                              double burn_threshold = 1.0);
  static SloObjective Ratio(std::string name, std::string bad_counter,
                            std::string total_counter, double budget = 0.001,
                            double burn_threshold = 1.0);
};

/// One breach, kept for reporting (benches summarize these per run).
struct SloBreach {
  std::string name;
  TimeNs window_start = 0;
  TimeNs window_end = 0;
  uint64_t bad = 0;
  uint64_t total = 0;
  int64_t burn_milli = 0;
};

/// Evaluates configured objectives against each sampled timeline window.
/// Verdicts land in three read-only places: the window's `slo` array
/// (and so the `.timeline.jsonl` sidecar), breaches(), and -- when the
/// tracer is recording -- an instant record on the "slo" trace category,
/// so breaches line up with spans on the Perfetto timeline. The monitor
/// never writes the metrics registry: arming it cannot move a metrics
/// fingerprint.
class SloMonitor {
 public:
  void AddObjective(SloObjective obj);
  bool armed() const { return !objectives_.empty(); }
  const std::vector<SloObjective>& objectives() const { return objectives_; }

  /// Evaluates every objective against `window` (whose counter/timer
  /// deltas and sketches are already computed), appends per-objective
  /// verdicts to window->slo, and records breaches. `window_sketches`
  /// maps timer name -> the window's diffed Histogram for latency
  /// objectives. `tracer` may be null (pure evaluation).
  void Evaluate(TimelineWindow* window,
                const std::map<std::string, Histogram>& window_sketches,
                Tracer* tracer);

  uint64_t evaluations() const { return evaluations_; }
  const std::vector<SloBreach>& breaches() const { return breaches_; }
  void Clear() {
    breaches_.clear();
    evaluations_ = 0;
  }

 private:
  std::vector<SloObjective> objectives_;
  std::vector<SloBreach> breaches_;
  uint64_t evaluations_ = 0;
};

}  // namespace dmrpc::obs

#endif  // DMRPC_OBS_SLO_H_
