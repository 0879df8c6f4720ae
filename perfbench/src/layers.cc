// Per-layer figures, measured from outside each module: registry counter
// deltas over the measurement window, timer quantiles of the window,
// host time around the set-up calls, and the traced pass's virtual
// critical-path shares. README.md maps each one to the end-to-end metric
// and workload it should move.

#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double TrimmedMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t trim = v.size() >= 3 ? 1 : 0;
  double sum = 0;
  for (size_t i = trim; i < v.size() - trim; ++i) sum += v[i];
  return v.empty() ? 0 : sum / static_cast<double>(v.size() - 2 * trim);
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Window view of one repetition's registry snapshots.
class Window {
 public:
  explicit Window(const RepResult& r) : r_(r) {}

  double Count(const std::string& name) const {
    return static_cast<double>(Get(r_.at_end, name) - Get(r_.at_start, name));
  }

  /// Sum of every counter under `prefix` (e.g. the per-reason drops).
  double CountPrefix(const std::string& prefix) const {
    double sum = 0;
    for (const auto& [name, v] : r_.at_end.counters) {
      if (name.compare(0, prefix.size(), prefix) == 0) sum += Count(name);
    }
    return sum;
  }

  /// Quantile of a registry timer over the window, in microseconds.
  double TimerUs(const std::string& name, double q) const {
    auto end = r_.at_end.timers.find(name);
    if (end == r_.at_end.timers.end()) return 0;
    auto start = r_.at_start.timers.find(name);
    dmrpc::Histogram h = start == r_.at_start.timers.end()
                             ? end->second
                             : end->second.Diff(start->second);
    return static_cast<double>(h.ValueAtQuantile(q)) / 1e3;
  }

  /// High-watermark of a gauge over the whole run (it cannot be split).
  double GaugeMax(const std::string& name) const {
    auto it = r_.at_end.gauge_max.find(name);
    return it == r_.at_end.gauge_max.end() ? 0
                                           : static_cast<double>(it->second);
  }

 private:
  static uint64_t Get(const Snapshot& s, const std::string& name) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  }

  const RepResult& r_;
};

}  // namespace

std::vector<Metric> LayerMetrics(const std::vector<RepResult>& full,
                                 const RepResult& traced,
                                 const RepResult& twin) {
  // Counts repeat exactly across repetitions. Host times aggregate like
  // the end-to-end metric they feed: set-up phases like setup_s (median),
  // the event rate like run_s (trimmed mean).
  const RepResult& r = full.front();
  const Window w(r);
  auto host_of = [&](auto field, double (*aggregate)(std::vector<double>)) {
    std::vector<double> v;
    for (const RepResult& x : full) v.push_back(field(x));
    return aggregate(v);
  };
  const double offered = static_cast<double>(r.out.offered);
  const double window_s = static_cast<double>(r.window) / 1e9;
  const double events = static_cast<double>(r.at_end.events - r.at_start.events);
  const double committed = w.Count("kv.txn.committed");

  std::vector<Metric> m = {
      {"sim.events", events, "count"},
      {"sim.host_ns_per_event", host_of([](const RepResult& x) {
         return Ratio((x.at_end.host_s - x.at_start.host_s) * 1e9,
                      static_cast<double>(x.at_end.events - x.at_start.events));
       }, TrimmedMean),
       "ns"},
      {"setup.cluster_s",
       host_of([](const RepResult& x) { return x.cluster_s; }, Median), "s"},
      {"setup.init_s",
       host_of([](const RepResult& x) { return x.init_s; }, Median), "s"},
      {"setup.load_s",
       host_of([](const RepResult& x) { return x.load_s; }, Median), "s"},
      {"workload.offered_krps", offered / window_s / 1e3, "krps"},
      {"net.tx_packets", w.Count("net.tx_packets"), "count"},
      {"net.fabric.spine_hops", w.Count("net.fabric.spine_hops"), "count"},
      {"net.fabric.port_enqueued", w.Count("net.fabric.port_enqueued"), "count"},
      {"net.fabric.max_port_depth", w.GaugeMax("net.fabric.max_port_depth"),
       "packets"},
      {"net.drops", w.CountPrefix("net.drop_reason."), "count"},
      {"rpc.requests_sent", w.Count("rpc.requests_sent"), "count"},
      {"rpc.pkts_per_call",
       Ratio(w.Count("rpc.tx_packets"), w.Count("rpc.requests_sent")), "ratio"},
      {"rpc.retransmits", w.Count("rpc.retransmits"), "count"},
      {"rpc.credit_stalls", w.Count("rpc.credit_stalls"), "count"},
      {"rpc.slot_wait_p99_us", w.TimerUs("rpc.slot_wait", 0.99), "us"},
      {"rpc.call_p99_us", w.TimerUs("rpc.call", 0.99), "us"},
      {"rpc.bytes_copied", w.Count("rpc.bytes_copied"), "bytes"},
      {"dm.frames_configured", static_cast<double>(r.frames_configured), "count"},
      {"dm.frames_touched", static_cast<double>(r.frames_touched), "count"},
      {"dm.fetch_refs", w.Count("dm.fetch_refs"), "count"},
      {"dm.cow_copies", w.Count("dm.cow_copies"), "count"},
      {"cxl.page_faults", w.Count("cxl.page_faults"), "count"},
      {"cxl.cow_copies", w.Count("cxl.cow_copies"), "count"},
      {"cxl.eager_copied_pages", w.Count("cxl.eager_copied_pages"), "count"},
      {"cxl.coordinator_refills", w.Count("cxl.coordinator_refills"), "count"},
      {"kv.txn.committed", committed, "count"},
      {"kv.abort_frac",
       Ratio(w.Count("kv.txn.aborted"), w.Count("kv.txn.begun")), "ratio"},
      {"kv.retries_per_txn", Ratio(w.Count("kv.txn.retries"), committed),
       "ratio"},
      {"kv.rpcs_per_txn", Ratio(w.Count("rpc.requests_sent"), committed),
       "ratio"},
      {"msvc.calls_per_request", Ratio(w.Count("msvc.service_calls"), offered),
       "ratio"},
  };
  for (const auto& [name, value] : traced.critical_path) {
    std::string unit = "ratio";
    if (name == "cp.requests") unit = "count";
    if (name.find("bytes_per_req") != std::string::npos) unit = "bytes";
    m.push_back({name, value, unit});
  }
  m.push_back({"obs.trace_overhead", Ratio(traced.run_s, twin.run_s), "ratio"});
  m.push_back({"obs.trace_records", static_cast<double>(traced.trace_records),
               "count"});
  m.push_back({"obs.trace_interval_violations",
               static_cast<double>(traced.trace_interval_violations), "count"});
  return m;
}

}  // namespace perfbench
