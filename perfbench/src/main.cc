// perfbench: the simulator's benchmark. One invocation runs one workload
// (see workloads.cc) on the sequential engine for --seconds of host time,
// cycling through SeedsPerRun() simulation seeds derived from --seed. It
// checks that every repetition of a seed is bit-identical and correct,
// and prints a human-readable report followed by one JSON result line:
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 reports the end-to-end metrics on both clocks; --trace 1
// reports the per-layer metrics, adding a traced repetition (and its
// untraced twin) over a short window for the critical-path split.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Past the minimum, no repetition starts once the projected end passes this
/// (host s), so a long --seconds stays well inside the time limit.
constexpr double kRepBudgetS = 110.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), a->workload) != names.end();
}

/// Simulation seed of repetition `rep` of a run cycling `seeds` seeds: the
/// first is --seed itself.
uint64_t RepSeed(uint64_t seed, size_t seeds, size_t rep) {
  return seed ^ ((rep % seeds) * 0x9E3779B97F4A7C15ull);
}

/// Nearest-rank percentile of sorted `v`.
double PercentileUs(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]) / 1e3;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Collects correctness failures; any one makes the run incorrect.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  void Print() const {
    for (const std::string& f : failures_) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    }
  }

 private:
  std::vector<std::string> failures_;
};

/// Checks one repetition on its own: post-run audits, no failed request.
void CheckRep(const RepResult& r, const char* label, Checks* checks) {
  for (const std::string& v : r.violations) {
    checks->Expect(false, std::string(label) + ": " + v);
  }
  checks->Expect(r.out.failed == 0,
                 std::string(label) + ": " + std::to_string(r.out.failed) +
                     " requests failed (the workloads are sized so none do)");
  checks->Expect(r.out.offered > 0, std::string(label) + ": no requests");
}

/// Two runs of one seed and window must agree on every virtual figure.
void CheckSame(const RepResult& a, const RepResult& b, const std::string& what,
               Checks* checks) {
  checks->Expect(a.fingerprint == b.fingerprint,
                 what + ": metrics fingerprints differ");
  checks->Expect(a.out.offered == b.out.offered && a.out.ok == b.out.ok &&
                     a.out.failed == b.out.failed &&
                     a.out.latencies_ns == b.out.latencies_ns,
                 what + ": virtual request outcomes differ");
}

/// Request outcomes of the run's `seeds` distinct seeds, pooled.
Outcomes Pooled(const std::vector<RepResult>& reps, size_t seeds) {
  Outcomes all;
  for (size_t i = 0; i < seeds; ++i) {
    const Outcomes& o = reps[i].out;
    all.offered += o.offered;
    all.ok += o.ok;
    all.failed += o.failed;
    all.latencies_ns.insert(all.latencies_ns.end(), o.latencies_ns.begin(),
                            o.latencies_ns.end());
  }
  return all;
}

std::vector<Metric> EndToEnd(const std::vector<RepResult>& reps,
                             size_t seeds) {
  const RepResult& r = reps.front();
  Outcomes all = Pooled(reps, seeds);
  std::vector<int64_t>& lat = all.latencies_ns;
  std::sort(lat.begin(), lat.end());
  uint64_t over_limit = static_cast<uint64_t>(
      lat.end() - std::upper_bound(lat.begin(), lat.end(), r.slo_limit));
  double offered = static_cast<double>(all.offered);
  double window_s = static_cast<double>(r.window * seeds) / 1e9;
  std::vector<double> setup, run;
  for (const RepResult& x : reps) {
    setup.push_back(x.setup_s);
    run.push_back(x.run_s);
  }
  return {
      {"goodput_krps", static_cast<double>(all.ok) / window_s / 1e3, "krps"},
      {"lat_p50_us", PercentileUs(lat, 0.50), "us"},
      {"lat_p99_us", PercentileUs(lat, 0.99), "us"},
      {"lat_p999_us", PercentileUs(lat, 0.999), "us"},
      {"fail_frac", static_cast<double>(all.failed) / offered, "ratio"},
      {"slo_miss_frac",
       static_cast<double>(all.failed + over_limit) / offered, "ratio"},
      {"setup_s", Median(setup), "s"},
      {"run_s", TrimmedMean(run), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

void PrintJson(bool correct, const Outcomes& out,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", out.offered, out.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload socialnet-clos|kv-ycsb-a|"
                 "image-cxl [--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  // Repetitions always run, whatever --seconds says: one per seed plus a
  // repeat of the first, so determinism is checked in every run.
  const size_t seeds = SeedsPerRun(args.workload);
  const size_t min_reps = seeds + 1;
  Checks checks;
  std::vector<RepResult> reps;
  Clock::time_point t0 = Clock::now();
  double last_rep_s = 0;
  for (;;) {
    double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    bool enough = reps.size() >= min_reps && elapsed >= args.seconds;
    bool over_budget =
        reps.size() >= min_reps && elapsed + last_rep_s > kRepBudgetS;
    if (enough || over_budget) break;
    Clock::time_point rep_t0 = Clock::now();
    const uint64_t seed = RepSeed(args.seed, seeds, reps.size());
    reps.push_back(RunRep(args.workload, seed, RepConfig{}));
    last_rep_s = std::chrono::duration<double>(Clock::now() - rep_t0).count();
    const RepResult& r = reps.back();
    const size_t n = reps.size();
    std::printf("  rep %zu (sim seed %" PRIu64 "): setup %.3f s (cluster "
                "%.3f, init %.3f, load %.3f)  run %.3f s  offered %" PRIu64
                "  failed %" PRIu64 "  fingerprint %016" PRIx64 "\n",
                n, seed, r.setup_s, r.cluster_s, r.init_s, r.load_s, r.run_s,
                r.out.offered, r.out.failed, r.fingerprint);
    std::fflush(stdout);
    std::string label = "rep " + std::to_string(n);
    CheckRep(r, label.c_str(), &checks);
    if (n > seeds) {
      CheckSame(reps[n - 1 - seeds], r,
                "rep " + std::to_string(n - seeds) + " vs " + label,
                &checks);
    }
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    RepConfig twin_cfg;
    twin_cfg.short_window = true;
    RepConfig traced_cfg = twin_cfg;
    traced_cfg.traced = true;
    RepResult twin = RunRep(args.workload, args.seed, twin_cfg);
    RepResult traced = RunRep(args.workload, args.seed, traced_cfg);
    std::printf("  traced pass: %" PRIu64 " records, %" PRIu64
                " dropped, run %.3f s vs %.3f s untraced, fingerprint "
                "%016" PRIx64 " vs %016" PRIx64 "\n",
                traced.trace_records, traced.trace_dropped, traced.run_s,
                twin.run_s, traced.fingerprint, twin.fingerprint);
    CheckRep(twin, "untraced twin", &checks);
    CheckRep(traced, "traced pass", &checks);
    CheckSame(twin, traced, "traced vs untraced", &checks);
    checks.Expect(traced.trace_dropped == 0, "traced pass dropped records");
    if (traced.trace_interval_violations > 0) {
      std::fprintf(stderr,
                   "perfbench: KNOWN DEFECT (reported, not gated): %" PRIu64
                   " spans outlive their parent, e.g. %s\n",
                   traced.trace_interval_violations,
                   traced.trace_interval_example.c_str());
    }
    metrics = LayerMetrics(reps, traced, twin);
  } else {
    metrics = EndToEnd(reps, seeds);
  }

  std::printf("  %-28s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  checks.Print();
  // fail_frac is carried by the result line's attempted/failed fields:
  // it is 0 on a correct run, so it cannot be a ratio-bounded metric.
  std::vector<Metric> reported;
  for (const Metric& m : metrics) {
    if (m.name != "fail_frac") reported.push_back(m);
  }
  PrintJson(checks.ok(), Pooled(reps, seeds), reported);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
