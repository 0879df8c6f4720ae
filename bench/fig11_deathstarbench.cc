// Reproduces Fig. 11 (paper §VI-F): the DeathStarBench-style social
// network under the mixed workload (60% read-home-timeline, 30%
// read-user-timeline, 10% compose-post), deployed on three app servers,
// comparing eRPC and DmRPC-net: average, p99, and p99.9 latency as the
// offered request rate grows.
//
// Expected shape: DmRPC-net sustains a substantially higher request rate
// before its latency knee, and has lower latency at every common rate,
// because all requests traverse at least three data-mover services that
// only forward Refs instead of post media.

#include <benchmark/benchmark.h>

#include <map>

#include "apps/socialnet.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "workload/openloop.h"

namespace dmrpc::bench {
namespace {

std::map<std::pair<int, int>, msvc::WorkloadResult>& Cache() {
  static auto* cache =
      new std::map<std::pair<int, int>, msvc::WorkloadResult>();
  return *cache;
}

const msvc::WorkloadResult& RunSocialNet(msvc::Backend backend,
                                         int rate_krps) {
  auto key = std::make_pair(static_cast<int>(backend), rate_krps);
  auto it = Cache().find(key);
  if (it != Cache().end()) return it->second;

  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(11);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 6;  // 3 app servers + client host + DM hosts
  cfg.dm_frames = 1u << 17;
  msvc::Cluster cluster(&sim, cfg);
  apps::SocialNetApp app(&cluster, {1, 2, 3});
  msvc::ServiceEndpoint* client = cluster.AddService("client", 0, 1000, 4);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();

  workload::OpenLoopConfig load;  // one Poisson source
  load.rate_rps = rate_krps * 1000.0;
  load.max_outstanding = 50000;
  msvc::WorkloadResult res = workload::RunOpenLoopMulti(
      &sim, {app.MakeMixedRequestFn(client)}, load,
      env.Warmup(100 * kMillisecond), env.Measure(500 * kMillisecond));
  BenchObs::Record(std::string(msvc::BackendName(backend)) + "_" +
                       std::to_string(rate_krps) + "krps",
                   &sim);
  return Cache().emplace(key, std::move(res)).first->second;
}

constexpr int kRatesKrps[] = {5, 10, 20, 40, 60, 80, 100};

void BM_SocialNet(benchmark::State& state) {
  auto backend = static_cast<msvc::Backend>(state.range(0));
  int rate = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const msvc::WorkloadResult& res = RunSocialNet(backend, rate);
    state.counters["goodput_krps"] = res.throughput_rps() / 1e3;
    state.counters["avg_us"] = res.latency.mean() / 1e3;
    state.counters["p99_us"] = res.latency.p99() / 1e3;
  }
  state.SetLabel(msvc::BackendName(backend));
}

void RegisterAll() {
  for (msvc::Backend backend :
       {msvc::Backend::kErpc, msvc::Backend::kDmNet}) {
    for (int rate : kRatesKrps) {
      benchmark::RegisterBenchmark("fig11/deathstarbench", BM_SocialNet)
          ->Args({static_cast<int64_t>(backend), rate})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void PrintPaperTables() {
  Table table(
      "Fig 11: social network latency vs offered rate "
      "(60/30/10 read-home/read-user/compose, us)",
      {"offered-krps", "eRPC-goodput", "eRPC-avg", "eRPC-p99", "eRPC-p999",
       "net-goodput", "net-avg", "net-p99", "net-p999"});
  for (int rate : kRatesKrps) {
    const msvc::WorkloadResult& erpc =
        RunSocialNet(msvc::Backend::kErpc, rate);
    const msvc::WorkloadResult& net =
        RunSocialNet(msvc::Backend::kDmNet, rate);
    table.AddRow({Table::Int(rate),
                  Table::Num(erpc.throughput_rps() / 1e3),
                  Table::Num(erpc.latency.mean() / 1e3),
                  Table::Num(erpc.latency.p99() / 1e3),
                  Table::Num(erpc.latency.p999() / 1e3),
                  Table::Num(net.throughput_rps() / 1e3),
                  Table::Num(net.latency.mean() / 1e3),
                  Table::Num(net.latency.p99() / 1e3),
                  Table::Num(net.latency.p999() / 1e3)});
  }
  table.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  dmrpc::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dmrpc::bench::PrintPaperTables();
  return 0;
}
