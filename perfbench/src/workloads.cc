// The three benchmark workloads. Each repetition builds its datacenter
// from the seed on a fresh sequential sim::Simulation, drives the load
// through src/workload or msvc's loops, and tears everything down again,
// so repetitions of one seed are independent and must be bit-identical.
//
// Every request function is wrapped by the benchmark: the wrapper times
// each request from its scheduled arrival (virtual clock) and, where the
// workload has no root span of its own, opens one (`bench.txn` for KV,
// `bench.request` for the image pipeline) so the traced pass sees one
// span tree per request.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "apps/image_pipeline.h"
#include "apps/socialnet.h"
#include "bench.h"
#include "common/logging.h"
#include "kv/harness.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "sim/simulation.h"
#include "workload/openloop.h"

namespace perfbench {

using namespace dmrpc;  // NOLINT: the benchmark drives every layer

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Trace span categories and host roles reported as cp.<cat>_frac and
/// cp.role.<role>_frac, even when absent.
const char* const kLayers[] = {"app", "msvc", "rpc", "net",
                               "dmrpc", "dm",  "cxl", "kv"};
const char* const kRoles[] = {"client", "service", "dm_server",
                              "lock_server", "switch"};
/// Switch egress lanes sit at track 1000 and above (net/fabric.cc).
constexpr uint32_t kFirstSwitchTrack = 1000;
/// Enough for every traced window below; a run that sheds records fails.
constexpr size_t kTraceLimit = size_t{4} << 20;

/// One repetition: the simulation, host timing, the request wrapper and
/// the window snapshots. Workload code builds its cluster after this
/// object (so the cluster is torn down first), times its set-up calls
/// with Phase(), then runs the load once with RunOpen() or RunClosed().
class Rep {
 public:
  Rep(uint64_t seed, const RepConfig& cfg)
      : cfg_(cfg), t0_(Clock::now()), sim_(seed) {}

  sim::Simulation* sim() { return &sim_; }
  RepResult& result() { return res_; }

  /// Runs `fn` and stores its host duration in *out.
  template <typename Fn>
  void Phase(double* out, Fn&& fn) {
    Clock::time_point t = Clock::now();
    fn();
    *out = SecondsSince(t);
  }

  /// Drives a set-up coroutine to completion; fatal on error.
  void RunSetup(sim::Task<Status> task, const char* what) {
    Status st = msvc::RunToCompletion(&sim_, std::move(task), 600 * kSecond);
    if (!st.ok()) LOG_FATAL << what << ": " << st.ToString();
  }

  /// Role of each fabric node in the critical-path role split.
  void SetRole(net::NodeId node, const char* role) { roles_[node] = role; }

  /// Wraps a request function so the benchmark records its outcome.
  /// `root_name` names the request's root span; the wrapper opens it in
  /// category `root_cat`, or leaves it to the workload when that is null.
  msvc::RequestFn Wrap(msvc::RequestFn fn, net::NodeId node,
                       const char* root_cat, const char* root_name) {
    fns_.push_back(std::make_unique<msvc::RequestFn>(std::move(fn)));
    const msvc::RequestFn* inner = fns_.back().get();
    root_name_ = root_name;
    return [this, inner, node, root_cat, root_name]() {
      return Recorded(this, inner, node, root_cat, root_name);
    };
  }

  void RunOpen(msvc::Cluster* cluster,
               const std::vector<msvc::RequestFn>& sources,
               const workload::OpenLoopConfig& wcfg, TimeNs warmup,
               TimeNs measure) {
    msvc::WindowHooks hooks = BeginRun(cluster, warmup, measure);
    EndRun(workload::RunOpenLoopMulti(&sim_, sources, wcfg, warmup, measure,
                                      hooks));
  }

  void RunClosed(msvc::Cluster* cluster, const msvc::RequestFn& fn,
                 int workers, TimeNs warmup, TimeNs measure) {
    msvc::WindowHooks hooks = BeginRun(cluster, warmup, measure);
    EndRun(msvc::RunClosedLoop(&sim_, fn, workers, warmup, measure, hooks));
  }

  void Violation(std::string what) { res_.violations.push_back(std::move(what)); }

 private:
  static sim::Task<StatusOr<uint64_t>> Recorded(Rep* rep,
                                                const msvc::RequestFn* inner,
                                                net::NodeId node,
                                                const char* root_cat,
                                                const char* root_name) {
    sim::Simulation* sim = &rep->sim_;
    TimeNs start = sim->Now();
    bool in_window = start >= rep->window_start_ && start < rep->window_end_;
    if (in_window) rep->started_++;
    uint64_t span = 0;
    if (root_cat != nullptr) {
      // Minted whether or not the tracer records, like every root in the
      // program, so traced and untraced runs stay byte-identical.
      obs::TraceContext root = obs::EnsureTraceContext(sim->tracer());
      if (sim->tracer().enabled()) {
        span = sim->tracer().BeginSpan(root, root_cat, root_name, sim->Now(),
                                       node);
      }
      obs::SetCurrentTraceContext(obs::TraceContext{
          root.trace_id, span != 0 ? span : root.span_id, root.flags});
    }
    StatusOr<uint64_t> outcome = co_await (*inner)();
    if (span != 0) sim->tracer().EndSpan(span, sim->Now());
    if (in_window) {
      if (outcome.ok()) {
        rep->res_.out.latencies_ns.push_back(sim->Now() - start);
      } else {
        rep->errored_++;
      }
    }
    co_return outcome;
  }

  void TakeSnapshot(msvc::Cluster* cluster, Snapshot* snap) {
    cluster->fabric()->switch_stats();  // folds Clos counter shards
    const obs::MetricsRegistry& reg = sim_.metrics();
    reg.ForEachCounter([&](const std::string& name, const obs::Counter& c) {
      snap->counters[name] = c.value();
    });
    reg.ForEachGauge([&](const std::string& name, const obs::Gauge& g) {
      snap->gauge_max[name] = g.max();
    });
    reg.ForEachTimer([&](const std::string& name, const obs::Timer& t) {
      snap->timers[name] = t.hist();
    });
    snap->events = sim_.executed_events();
    snap->host_s = SecondsSince(t0_);
  }

  msvc::WindowHooks BeginRun(msvc::Cluster* cluster, TimeNs warmup,
                             TimeNs measure) {
    res_.setup_s = SecondsSince(t0_);
    res_.window = measure;
    window_start_ = sim_.Now() + warmup;
    window_end_ = window_start_ + measure;
    cluster_ = cluster;
    if (cfg_.traced) {
      // Armed at the first arrival: set-up traffic stays out of the dump.
      sim_.tracer().set_limit(kTraceLimit);
      sim_.tracer().set_enabled(true);
    }
    run_start_ = Clock::now();
    msvc::WindowHooks hooks;
    hooks.on_measure_start = [this] { TakeSnapshot(cluster_, &res_.at_start); };
    hooks.on_measure_end = [this] {
      res_.run_s = SecondsSince(run_start_);
      TakeSnapshot(cluster_, &res_.at_end);
    };
    return hooks;
  }

  void EndRun(const msvc::WorkloadResult& res) {
    Outcomes& out = res_.out;
    out.offered = res.offered;
    out.ok = out.latencies_ns.size();
    // Refused by the generator's outstanding cap, or still running after
    // the drain: both count as failed, like an error.
    uint64_t refused = res.offered - started_;
    uint64_t unfinished = started_ - out.ok - errored_;
    out.failed = errored_ + refused + unfinished;
    if (res.offered < started_ || started_ < out.ok + errored_) {
      Violation("request accounting does not add up");
    }
    res_.fingerprint = Fnv1a(sim_.DumpMetricsJson());
    if (cfg_.traced) AnalyzeTrace();
  }

  void AnalyzeTrace() {
    const obs::Tracer& tr = sim_.tracer();
    res_.trace_records = tr.records().size();
    res_.trace_dropped = tr.dropped();
    obs::TraceAnalysis ta;
    ta.AddRecords(tr.records(), tr.dropped());
    sim_.tracer().Clear();
    sim_.tracer().set_enabled(false);  // post-run audits stay unrecorded
    ta.Build();
    obs::WellFormedness wf = ta.Check();
    if (wf.unclosed + wf.orphans + wf.cross_trace + wf.multi_root_traces > 0) {
      Violation("trace span forest: " + std::to_string(wf.unclosed) +
                " unclosed, " + std::to_string(wf.orphans) + " orphans, " +
                std::to_string(wf.cross_trace) + " cross-trace, " +
                std::to_string(wf.multi_root_traces) + " multi-root traces");
    }
    // Reported, not gated: see README.md ("Known defect").
    res_.trace_interval_violations = wf.interval_violations;
    for (const std::string& p : wf.problems) {
      if (p.find("outside parent") != std::string::npos) {
        res_.trace_interval_example = p;
        break;
      }
    }
    // Requests whose root span began in the measurement window.
    std::vector<uint64_t> in_window;
    for (const obs::SpanNode& s : ta.spans()) {
      if (s.parent_id == 0 && s.name == root_name_ &&
          s.start >= window_start_ && s.start < window_end_) {
        in_window.push_back(s.trace_id);
      }
    }
    std::sort(in_window.begin(), in_window.end());
    std::map<std::string, double> by_layer, by_role;
    double total = 0, requests = 0, by_ref = 0, wire = 0, copied = 0;
    for (const obs::RequestBreakdown& b : ta.Breakdowns()) {
      if (!std::binary_search(in_window.begin(), in_window.end(),
                              b.trace_id)) {
        continue;
      }
      TimeNs layer_sum = 0, hop_sum = 0;
      for (const auto& [cat, ns] : b.by_layer) layer_sum += ns;
      for (const auto& [track, ns] : b.by_hop) hop_sum += ns;
      if (layer_sum != b.latency || hop_sum != b.latency) {
        Violation("critical path of trace " + std::to_string(b.trace_id) +
                  " does not sum to its latency");
      }
      requests += 1;
      total += static_cast<double>(b.latency);
      by_ref += b.by_ref ? 1 : 0;
      wire += static_cast<double>(b.wire_bytes);
      copied += static_cast<double>(b.copied_bytes);
      for (const auto& [cat, ns] : b.by_layer) by_layer[cat] += ns;
      for (const auto& [track, ns] : b.by_hop) {
        auto it = roles_.find(track);
        const char* role = track >= kFirstSwitchTrack ? "switch"
                           : it != roles_.end()       ? it->second
                                                      : "other";
        by_role[role] += ns;
      }
    }
    if (requests == 0 || total == 0) {
      Violation("traced pass saw no complete request in the window");
      return;
    }
    // A fixed set of names, so every workload reports the same metrics;
    // anything outside it lands in "other".
    std::map<std::string, double>& cp = res_.critical_path;
    auto split = [&](const std::map<std::string, double>& by,
                     const std::vector<std::string>& known,
                     const std::string& prefix) {
      for (const std::string& k : known) cp[prefix + k + "_frac"] = 0;
      cp[prefix + "other_frac"] = 0;
      for (const auto& [k, ns] : by) {
        bool is_known = std::find(known.begin(), known.end(), k) != known.end();
        cp[prefix + (is_known ? k : "other") + "_frac"] += ns / total;
      }
    };
    split(by_layer, {std::begin(kLayers), std::end(kLayers)}, "cp.");
    split(by_role, {std::begin(kRoles), std::end(kRoles)}, "cp.role.");
    cp["cp.requests"] = requests;
    cp["dmrpc.by_ref_frac"] = by_ref / requests;
    cp["cp.wire_bytes_per_req"] = wire / requests;
    cp["cp.copied_bytes_per_req"] = copied / requests;
  }

  RepConfig cfg_;
  Clock::time_point t0_;
  Clock::time_point run_start_;
  RepResult res_;
  std::map<uint32_t, const char*> roles_;
  std::string root_name_;
  msvc::Cluster* cluster_ = nullptr;
  TimeNs window_start_ = 0;
  TimeNs window_end_ = 0;
  uint64_t started_ = 0;
  uint64_t errored_ = 0;
  std::vector<std::unique_ptr<msvc::RequestFn>> fns_;
  // Last member, so it is destroyed first: request frames it still holds
  // point into the members above.
  sim::Simulation sim_;
};

// ---------------------------------------------------------------------
// socialnet-clos: 4 socialnet cells on a 96-host 2-spine x 4-leaf Clos,
// open-loop Poisson load from every other host, DmRPC-net backend.

constexpr uint32_t kSnHosts = 96;
constexpr uint32_t kSnSpines = 2;
constexpr uint32_t kSnLeaves = 4;
constexpr uint32_t kSnQueue = 256;
constexpr uint32_t kSnCells = 4;
// 256 MiB per DM server, zero-filled at construction; a run touches ~3k
// frames of the 262k configured (README.md: why not scale_sweep's 1<<18).
constexpr uint32_t kSnDmFrames = 1u << 16;
constexpr double kSnRateRps = 600e3;

RepResult RunSocialnetClos(uint64_t seed, const RepConfig& cfg) {
  Rep rep(seed, cfg);
  net::TopologyConfig topo =
      net::TopologyConfig::Clos(kSnHosts, kSnSpines, kSnLeaves, kSnQueue);
  const uint32_t hpl = topo.HostsPerLeaf();
  // One cell per leaf on the leaf's first three hosts, one DM server on
  // its last host, clients everywhere else (so most client traffic
  // crosses the spines).
  std::vector<bool> used(kSnHosts, false);
  std::vector<std::vector<net::NodeId>> cell_nodes;
  msvc::ClusterConfig ccfg;
  for (uint32_t leaf = 0; leaf < kSnLeaves; ++leaf) {
    net::NodeId base = leaf * hpl;
    cell_nodes.push_back({base, base + 1, base + 2});
    ccfg.dm_server_nodes.push_back(base + hpl - 1);
    for (net::NodeId n : cell_nodes.back()) {
      used[n] = true;
      rep.SetRole(n, "service");
    }
    used[base + hpl - 1] = true;
    rep.SetRole(base + hpl - 1, "dm_server");
  }
  ccfg.backend = msvc::Backend::kDmNet;
  ccfg.num_nodes = kSnHosts;
  ccfg.topology = topo;
  ccfg.dm_frames = kSnDmFrames;

  std::unique_ptr<msvc::Cluster> cluster;
  rep.Phase(&rep.result().cluster_s, [&] {
    cluster = std::make_unique<msvc::Cluster>(rep.sim(), ccfg);
  });
  std::vector<std::unique_ptr<apps::SocialNetApp>> cells;
  for (uint32_t i = 0; i < kSnCells; ++i) {
    apps::SocialNetConfig scfg;
    scfg.read_zipf_skew = 0.99;
    scfg.service_prefix = "sn" + std::to_string(i) + "-";
    cells.push_back(std::make_unique<apps::SocialNetApp>(
        cluster.get(), cell_nodes[i], scfg));
  }
  std::vector<msvc::RequestFn> sources;
  uint32_t j = 0;
  for (net::NodeId n = 0; n < kSnHosts; ++n) {
    if (used[n]) continue;
    rep.SetRole(n, "client");
    msvc::ServiceEndpoint* client =
        cluster->AddService("client" + std::to_string(j), n, 1000, 4);
    // socialnet opens its own app.request root span.
    sources.push_back(rep.Wrap(cells[j % kSnCells]->MakeMixedRequestFn(client),
                               n, nullptr, "app.request"));
    ++j;
  }
  rep.Phase(&rep.result().init_s,
            [&] { rep.RunSetup(cluster->InitAll(), "socialnet init"); });

  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = kSnRateRps;
  bool short_window = cfg.short_window;
  // SLO limits sit near p90-p95 so the miss count is steady (README.md).
  rep.result().slo_limit = 62 * kMicrosecond;
  rep.RunOpen(cluster.get(), sources, wcfg,
              (short_window ? 2 : 5) * kMillisecond,
              (short_window ? 5 : 20) * kMillisecond);

  uint64_t servers = cluster->num_dm_servers();
  rep.result().frames_configured = uint64_t{kSnDmFrames} * servers;
  rep.result().frames_touched =
      rep.sim()->metrics().CounterValue("dm.pool.frames_popped");
  return std::move(rep.result());
}

// ---------------------------------------------------------------------
// kv-ycsb-a: transactional KV in by-ref mode (DmRPC-net) under WAIT_DIE,
// 8 clients, 64 Ki loaded keys, Zipf 0.9, YCSB-A's read/update mix with
// updates at 55% instead of 50%. Reads (~40 us) and updates (~78 us) form
// two latency modes; at exactly 50/50 the median sits on the boundary and
// flips between them from seed to seed.

constexpr uint32_t kKvClients = 8;
constexpr uint64_t kKvKeys = 64 * 1024;
constexpr uint32_t kKvValueSize = 100;
constexpr uint32_t kKvDmFrames = 1u << 16;
constexpr double kKvZipf = 0.9;
constexpr double kKvRateRps = 100e3;
constexpr uint32_t kKvUpdatePercent = 55;

/// A `kv`-category child span around one Txn call. Installs itself as
/// the ambient parent, so the RPCs the call makes nest under it; End()
/// restores the transaction's context.
class KvSpan {
 public:
  KvSpan(const char* name, net::NodeId node)
      : sim_(sim::Simulation::Current()), parent_(obs::CurrentTraceContext()) {
    if (sim_->tracer().enabled()) {
      id_ = sim_->tracer().BeginSpan(parent_, "kv", name, sim_->Now(), node);
    }
    obs::SetCurrentTraceContext(obs::TraceContext{
        parent_.trace_id, id_ != 0 ? id_ : parent_.span_id, parent_.flags});
  }
  void End() {
    obs::SetCurrentTraceContext(parent_);
    sim_->tracer().EndSpan(id_, sim_->Now());
  }

 private:
  sim::Simulation* sim_;
  obs::TraceContext parent_;
  uint64_t id_ = 0;
};

msvc::RequestFn YcsbASource(kv::KvCluster* kvc, uint32_t who) {
  return [kvc, who]() -> sim::Task<StatusOr<uint64_t>> {
    Rng& rng = sim::Simulation::Current()->rng();
    const net::NodeId node = kvc->client_node(who);
    const uint64_t key = rng.Zipf(kKvKeys, kKvZipf);
    const bool update = rng.Uniform(100) < kKvUpdatePercent;
    Status st = co_await kvc->txns(who)->RunTxn(
        [&](kv::Txn& txn) -> sim::Task<Status> {
          if (update) {
            KvSpan get("kv.get_for_update", node);
            auto got = co_await txn.GetForUpdate(key);
            get.End();
            if (!got.ok()) co_return got.status();
            auto value = kv::KvCluster::MakeValue(key, kKvValueSize, txn.id());
            KvSpan put("kv.put", node);
            Status ps = co_await txn.Put(key, value.data());
            put.End();
            co_return ps;
          }
          KvSpan get("kv.get", node);
          auto got = co_await txn.Get(key);
          get.End();
          co_return got.status();
        });
    if (!st.ok()) co_return st;
    co_return uint64_t{kKvValueSize};
  };
}

RepResult RunKvYcsbA(uint64_t seed, const RepConfig& cfg) {
  Rep rep(seed, cfg);
  kv::KvClusterConfig kcfg;
  kcfg.mode = kv::AccessMode::kByRef;
  kcfg.policy = kv::CcPolicy::kWaitDie;
  kcfg.num_clients = kKvClients;
  kcfg.value_size = kKvValueSize;
  kcfg.dm_frames = kKvDmFrames;
  kcfg.record_history = cfg.traced;

  std::unique_ptr<kv::KvCluster> kvc;
  rep.Phase(&rep.result().cluster_s, [&] {
    kvc = std::make_unique<kv::KvCluster>(rep.sim(), kcfg);
  });
  msvc::Cluster* cluster = kvc->cluster();
  rep.Phase(&rep.result().init_s,
            [&] { rep.RunSetup(kvc->Init(), "kv init"); });
  rep.Phase(&rep.result().load_s,
            [&] { rep.RunSetup(kvc->Load(kKvKeys), "kv load"); });

  std::vector<msvc::RequestFn> sources;
  for (uint32_t i = 0; i < kKvClients; ++i) {
    rep.SetRole(kvc->client_node(i), "client");
    sources.push_back(rep.Wrap(YcsbASource(kvc.get(), i), kvc->client_node(i),
                               "kv", "bench.txn"));
  }
  rep.SetRole(kvc->lock_node(), "lock_server");
  for (size_t i = 0; i < cluster->num_dm_servers(); ++i) {
    rep.SetRole(cluster->dm_server(i)->node(), "dm_server");
  }

  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = kKvRateRps;
  // The ycsb_sweep admission cap: bounds the waiter pile on hot locks.
  wcfg.max_outstanding = 512;
  rep.result().slo_limit = 85 * kMicrosecond;
  bool short_window = cfg.short_window;
  rep.RunOpen(cluster, sources, wcfg, (short_window ? 2 : 5) * kMillisecond,
              (short_window ? 40 : 300) * kMillisecond);

  rep.result().frames_configured =
      uint64_t{kKvDmFrames} * cluster->num_dm_servers();
  rep.result().frames_touched =
      rep.sim()->metrics().CounterValue("dm.pool.frames_popped");
  // Structural and serializability audits run after the fingerprint was
  // taken: the tree walk makes RPCs of its own.
  std::string report;
  Status inv = msvc::RunToCompletion(
      rep.sim(), kvc->tree(0)->CheckInvariants(&report), 600 * kSecond);
  if (!inv.ok()) rep.Violation("B+-tree invariants: " + inv.ToString());
  if (kvc->history() != nullptr) {
    std::string detail;
    Status ser = kvc->history()->CheckConflictSerializable(&detail);
    if (!ser.ok()) rep.Violation("serializability: " + detail);
  }
  return std::move(rep.result());
}

// ---------------------------------------------------------------------
// image-cxl: the 7-tier image pipeline on DmRPC-CXL, 16 closed-loop
// workers, images of 8 KiB on average (each size drawn uniformly from
// 6..10 KiB, so the seed shapes the input, and spanning two or three
// pages). The client checks every returned image against the expected
// transform of what it sent. The pipeline's byte loops run about
// 4.5 us/KiB of host time, and they swing with the host's speed far more
// than event dispatch does: at 64 KiB they were ~90% of run_s, whose
// spread over ten runs then reached 0.33 of the median. At 8 KiB they
// are about half.

constexpr uint32_t kImgNodes = 10;
constexpr uint32_t kImgDmFrames = 1u << 16;
constexpr uint32_t kImgMinBytes = 6 * 1024;
constexpr uint32_t kImgSpanBytes = 4 * 1024;
constexpr int kImgWorkers = 16;

RepResult RunImageCxl(uint64_t seed, const RepConfig& cfg) {
  Rep rep(seed, cfg);
  msvc::ClusterConfig ccfg;
  ccfg.backend = msvc::Backend::kDmCxl;
  ccfg.num_nodes = kImgNodes;
  ccfg.dm_frames = kImgDmFrames;
  std::unique_ptr<msvc::Cluster> cluster;
  rep.Phase(&rep.result().cluster_s, [&] {
    cluster = std::make_unique<msvc::Cluster>(rep.sim(), ccfg);
  });
  const std::vector<net::NodeId> service_nodes = {1, 2, 3, 4, 5, 6};
  apps::ImagePipelineApp app(cluster.get(), service_nodes);
  msvc::ServiceEndpoint* client = cluster->AddService("client", 0, 1000, 4);
  rep.SetRole(0, "client");
  for (net::NodeId n : service_nodes) rep.SetRole(n, "service");
  rep.SetRole(cluster->coordinator()->node(), "dm_server");
  rep.Phase(&rep.result().init_s,
            [&] { rep.RunSetup(cluster->InitAll(), "image init"); });

  apps::ImagePipelineApp* pipeline = &app;
  msvc::RequestFn request = [pipeline, client]() {
    Rng& rng = sim::Simulation::Current()->rng();
    return pipeline->DoRequest(client,
                               kImgMinBytes + rng.Uniform(kImgSpanBytes + 1));
  };
  msvc::RequestFn fn = rep.Wrap(request, 0, "app", "bench.request");
  rep.result().slo_limit = 49 * kMicrosecond;
  bool short_window = cfg.short_window;
  rep.RunClosed(cluster.get(), fn, kImgWorkers,
                (short_window ? 5 : 10) * kMillisecond,
                (short_window ? 30 : 130) * kMillisecond);

  rep.result().frames_configured = cluster->gfam()->pool().num_frames();
  rep.result().frames_touched =
      rep.sim()->metrics().CounterValue("cxl.gfam.frames_popped");
  return std::move(rep.result());
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"socialnet-clos",
                                                 "kv-ycsb-a", "image-cxl"};
  return names;
}

size_t SeedsPerRun(const std::string& workload) {
  // One window of a seed holds only ~10 samples beyond p999, so every
  // workload pools several. socialnet-clos pools six: the share of its
  // requests over the SLO limit varies most from seed to seed, and its
  // repetitions are the shortest. kv-ycsb-a pools three for its p999;
  // each of its repetitions loads the tree again, so four of them (three
  // seeds and one repeat) fill a 30-second run.
  if (workload == "socialnet-clos") return 6;
  if (workload == "kv-ycsb-a") return 3;
  return 2;
}

RepResult RunRep(const std::string& workload, uint64_t seed,
                 const RepConfig& cfg) {
  RepResult res;
  if (workload == "socialnet-clos") {
    res = RunSocialnetClos(seed, cfg);
  } else if (workload == "kv-ycsb-a") {
    res = RunKvYcsbA(seed, cfg);
  } else if (workload == "image-cxl") {
    res = RunImageCxl(seed, cfg);
  } else {
    LOG_FATAL << "unknown workload " << workload;
  }
  res.frames_touched = std::min(res.frames_touched, res.frames_configured);
  return res;
}

}  // namespace perfbench
