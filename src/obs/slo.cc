#include "obs/slo.h"

#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace dmrpc::obs {

SloObjective SloObjective::Latency(std::string name, std::string timer,
                                   TimeNs target_ns, double budget,
                                   double burn_threshold) {
  SloObjective o;
  o.name = std::move(name);
  o.kind = Kind::kLatency;
  o.timer = std::move(timer);
  o.target_ns = target_ns;
  o.budget = budget;
  o.burn_threshold = burn_threshold;
  return o;
}

SloObjective SloObjective::Ratio(std::string name, std::string bad_counter,
                                 std::string total_counter, double budget,
                                 double burn_threshold) {
  SloObjective o;
  o.name = std::move(name);
  o.kind = Kind::kRatio;
  o.bad_counter = std::move(bad_counter);
  o.total_counter = std::move(total_counter);
  o.budget = budget;
  o.burn_threshold = burn_threshold;
  return o;
}

void SloMonitor::AddObjective(SloObjective obj) {
  DMRPC_CHECK(!obj.name.empty()) << "SLO objective needs a name";
  DMRPC_CHECK_GT(obj.budget, 0.0) << "SLO " << obj.name << ": zero budget";
  objectives_.push_back(std::move(obj));
}

void SloMonitor::Evaluate(TimelineWindow* window,
                          const std::map<std::string, Histogram>& sketches,
                          Tracer* tracer) {
  for (const SloObjective& obj : objectives_) {
    WindowSlo verdict;
    verdict.name = obj.name;
    if (obj.kind == SloObjective::Kind::kLatency) {
      auto it = sketches.find(obj.timer);
      if (it != sketches.end()) {
        const Histogram& h = it->second;
        verdict.total = h.count();
        verdict.bad = h.count() - h.CountAtOrBelow(obj.target_ns);
      }
    } else {
      auto bad = window->counters.find(obj.bad_counter);
      auto total = window->counters.find(obj.total_counter);
      if (bad != window->counters.end()) verdict.bad = bad->second.delta;
      if (total != window->counters.end()) {
        verdict.total = total->second.delta;
      }
      // A drop with no forwarded traffic is still all-bad traffic.
      if (verdict.total < verdict.bad) verdict.total = verdict.bad;
    }
    ++evaluations_;

    if (verdict.total > 0) {
      // burn = (bad/total)/budget, kept in thousandths so the sidecar
      // stays integer-only. The double intermediate is exact enough:
      // both operands are <= 2^53 in any plausible window.
      double burn = (static_cast<double>(verdict.bad) /
                     static_cast<double>(verdict.total)) /
                    obj.budget;
      verdict.burn_milli = static_cast<int64_t>(burn * 1000.0);
      verdict.breached = burn >= obj.burn_threshold;
    }

    if (verdict.breached) {
      SloBreach b;
      b.name = obj.name;
      b.window_start = window->start_ns;
      b.window_end = window->end_ns;
      b.bad = verdict.bad;
      b.total = verdict.total;
      b.burn_milli = verdict.burn_milli;
      breaches_.push_back(b);
      if (tracer != nullptr && tracer->enabled()) {
        tracer->Instant("slo", obj.name + " burn " +
                                   std::to_string(verdict.burn_milli) +
                                   "m (bad " + std::to_string(verdict.bad) +
                                   "/" + std::to_string(verdict.total) + ")",
                        window->end_ns);
      }
    }
    window->slo.push_back(std::move(verdict));
  }
}

}  // namespace dmrpc::obs
