// Wall-clock microbenchmark suite for the simulation engine hot paths.
//
// Unlike the fig*/abl* benches (which reproduce paper figures in virtual
// time), this suite measures how fast the simulator itself executes on the
// host: events per wall-clock second across three workloads that stress the
// scheduler, the packet path, and the full RPC stack:
//
//   event_churn        timers + callback chains, no network
//   packet_forwarding  raw NIC -> switch -> NIC traffic, no RPC
//   rpc_echo_storm     concurrent small-message RPC echo calls
//   rpc_large_transfer multi-fragment 256 KiB RPC echoes (message path)
//   clos_echo_storm    cross-spine RPC echoes on the 192-host Clos fabric
//
// Each scenario runs a fixed, seeded virtual-time workload, so its virtual
// results (executed event count, full metrics JSON) are bit-reproducible;
// the FNV-1a hash of the metrics dump is pinned, with the event count, to
// prove that engine changes never move simulated behavior. Results go to
// BENCH_simcore.json (override with DMRPC_SIMCORE_JSON). wall_ms is this
// host's number only: compare builds by interleaved same-machine runs,
// never against a recorded constant.
//
// Usage: bench_simcore [--smoke] [scenario...]
//   --smoke     ~10x shorter windows, for CI
//   scenario    run only the named scenarios (default: all five), with
//               the same event-count and fingerprint pins. A scenario's
//               wall_ms depends on what ran before it in the process, so
//               wall-time A/Bs run one scenario per process.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/config.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "rpc/rpc.h"
#include "sim/channel.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace dmrpc::bench {
namespace {

constexpr uint64_t kSeed = 42;

/// When set, scenarios arm the event tracer before running. The harness
/// runs every scenario a second time with this on and requires the
/// executed-event count and metrics fingerprint to match the untraced
/// run exactly: recording spans must never perturb simulated behavior.
bool g_trace_pass = false;

void MaybeArmTracer(sim::Simulation* sim) {
  if (!g_trace_pass) return;
  sim->tracer().set_enabled(true);
  sim->tracer().set_limit(size_t{1} << 24);
}

/// FNV-1a over the metrics JSON: a compact determinism fingerprint.
uint64_t Fnv64(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunResult {
  uint64_t events = 0;
  double wall_ms = 0.0;
  uint64_t metrics_fnv = 0;

  double events_per_sec() const {
    return wall_ms > 0.0 ? events / (wall_ms / 1e3) : 0.0;
  }
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Scenario 1: event churn (scheduler-only hot loop)
// ---------------------------------------------------------------------------

sim::Task<> TimerLoop(sim::Simulation* sim, TimeNs period, TimeNs deadline) {
  while (sim->Now() + period <= deadline) {
    co_await sim::Delay(period);
  }
}

/// A self-rescheduling callback chain: one live event per chain at any
/// instant, stressing the push/pop path with small inlined callbacks.
struct CallbackChain {
  sim::Simulation* sim;
  TimeNs period;
  TimeNs deadline;
  void Step() {
    if (sim->Now() + period > deadline) return;
    sim->After(period, [this] { Step(); });
  }
};

RunResult RunEventChurn(bool smoke) {
  const TimeNs window = (smoke ? 2 : 20) * kMillisecond;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  std::vector<CallbackChain> chains;
  chains.reserve(64);
  for (int i = 0; i < 64; ++i) {
    // Periods 100..1703 ns, co-prime-ish so heap order keeps churning.
    sim.Spawn(TimerLoop(&sim, 100 + 37 * i, window));
    chains.push_back(CallbackChain{&sim, 113 + 41 * i, window});
  }
  for (CallbackChain& c : chains) c.Step();

  WallTimer wall;
  sim.RunUntil(window);
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 2: packet forwarding (NIC -> switch -> NIC, no RPC)
// ---------------------------------------------------------------------------

sim::Task<> PacketSender(sim::Simulation* sim, net::Fabric* fabric,
                         net::NodeId src, net::NodeId dst, uint32_t bytes,
                         TimeNs gap, TimeNs deadline) {
  while (sim->Now() + gap <= deadline) {
    co_await sim::Delay(gap);
    net::Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.src_port = 9;
    pkt.dst_port = 80;
    pkt.payload.assign(bytes, 0xab);
    fabric->nic(src)->Send(std::move(pkt));
  }
}

sim::Task<> PacketDrain(sim::Channel<net::Packet>* inbox, uint64_t* bytes) {
  for (;;) {
    net::Packet pkt = co_await inbox->Pop();
    *bytes += pkt.payload_size();
  }
}

RunResult RunPacketForwarding(bool smoke) {
  const TimeNs window = (smoke ? 1 : 10) * kMillisecond;
  constexpr uint32_t kNodes = 8;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  net::NetworkConfig cfg;
  net::Fabric fabric(&sim, cfg, kNodes);
  std::vector<std::unique_ptr<sim::Channel<net::Packet>>> inboxes;
  uint64_t drained_bytes = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    inboxes.push_back(std::make_unique<sim::Channel<net::Packet>>());
    fabric.nic(n)->BindPort(80, inboxes.back().get());
    sim.Spawn(PacketDrain(inboxes.back().get(), &drained_bytes));
  }
  for (uint32_t n = 0; n < kNodes; ++n) {
    sim.Spawn(PacketSender(&sim, &fabric, n, (n + 1) % kNodes,
                           /*bytes=*/1000, /*gap=*/500, window));
  }

  WallTimer wall;
  sim.RunUntil(window);
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 3: RPC echo storm (full stack)
// ---------------------------------------------------------------------------

sim::Task<rpc::MsgBuffer> EchoHandler(rpc::ReqContext, rpc::MsgBuffer req) {
  co_return req;
}

sim::Task<> EchoWorker(sim::Simulation* sim, rpc::Rpc* client,
                       rpc::SessionId session, TimeNs deadline,
                       uint64_t* calls) {
  while (sim->Now() < deadline) {
    rpc::MsgBuffer req;
    for (int i = 0; i < 8; ++i) req.Append<uint64_t>(i);  // 64 B
    auto resp = co_await client->Call(session, 1, std::move(req));
    DMRPC_CHECK(resp.ok());
    ++*calls;
  }
}

sim::Task<> EchoClient(sim::Simulation* sim, rpc::Rpc* client,
                       net::NodeId server, TimeNs deadline, uint64_t* calls) {
  auto session = co_await client->Connect(server, 1);
  DMRPC_CHECK(session.ok());
  for (int w = 0; w < 4; ++w) {
    sim->Spawn(EchoWorker(sim, client, *session, deadline, calls));
  }
}

RunResult RunRpcEchoStorm(bool smoke) {
  const TimeNs window = (smoke ? 2 : 20) * kMillisecond;
  constexpr uint32_t kClients = 4;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  net::NetworkConfig cfg;
  net::Fabric fabric(&sim, cfg, kClients + 1);
  rpc::Rpc server(&fabric, 0, 1);
  server.RegisterHandler(1, EchoHandler);
  std::vector<std::unique_ptr<rpc::Rpc>> clients;
  uint64_t calls = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<rpc::Rpc>(&fabric, c + 1, 1));
    sim.Spawn(EchoClient(&sim, clients.back().get(), 0, window, &calls));
  }

  WallTimer wall;
  sim.RunUntil(window + 1 * kMillisecond);  // drain in-flight tails
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  DMRPC_CHECK_GT(calls, 0u);
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 4: large transfers (the scatter-gather message path)
// ---------------------------------------------------------------------------
//
// 256 KiB echoes fragment into ~178 packets each way, so host time is
// dominated by serialization, fragmentation, and reassembly -- the path
// the slice-chain MsgBuffer made copy-free. This scenario deliberately
// uses only the MsgBuffer API surface shared by the contiguous and
// chain implementations, so the identical source measures both.

sim::Task<> LargeTransferWorker(sim::Simulation* sim, rpc::Rpc* client,
                                rpc::SessionId session,
                                const std::vector<uint8_t>* blob,
                                TimeNs deadline, uint64_t* calls) {
  while (sim->Now() < deadline) {
    rpc::MsgBuffer req;
    req.AppendBytes(blob->data(), blob->size());
    auto resp = co_await client->Call(session, 1, std::move(req));
    DMRPC_CHECK(resp.ok());
    DMRPC_CHECK_EQ(resp->size(), blob->size());
    ++*calls;
  }
}

sim::Task<> LargeTransferClient(sim::Simulation* sim, rpc::Rpc* client,
                                net::NodeId server,
                                const std::vector<uint8_t>* blob,
                                TimeNs deadline, uint64_t* calls) {
  auto session = co_await client->Connect(server, 1);
  DMRPC_CHECK(session.ok());
  for (int w = 0; w < 2; ++w) {
    sim->Spawn(LargeTransferWorker(sim, client, *session, blob, deadline,
                                   calls));
  }
}

RunResult RunRpcLargeTransfer(bool smoke) {
  const TimeNs window = (smoke ? 2 : 20) * kMillisecond;
  constexpr uint32_t kClients = 2;
  constexpr size_t kBlobBytes = 256 * 1024;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  net::NetworkConfig cfg;
  net::Fabric fabric(&sim, cfg, kClients + 1);
  rpc::Rpc server(&fabric, 0, 1);
  server.RegisterHandler(1, EchoHandler);
  std::vector<uint8_t> blob(kBlobBytes);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  std::vector<std::unique_ptr<rpc::Rpc>> clients;
  uint64_t calls = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<rpc::Rpc>(&fabric, c + 1, 1));
    sim.Spawn(LargeTransferClient(&sim, clients.back().get(), 0, &blob,
                                  window, &calls));
  }

  WallTimer wall;
  sim.RunUntil(window + 2 * kMillisecond);  // drain in-flight tails
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  DMRPC_CHECK_GT(calls, 0u);
  // The zero-copy gate: after the producer writes into the request, no
  // payload byte may be memcpy'd on the message path.
  DMRPC_CHECK_EQ(sim.metrics().CounterValue("rpc.bytes_copied"), 0u);
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 5: cross-spine RPC echo storm on the 192-host Clos fabric
// ---------------------------------------------------------------------------
//
// The bench/scale datacenter shape (192 hosts, 4 spines x 8 leaves,
// 256-packet port queues) with four echo clients per leaf, each calling
// the next leaf's server, so every RPC crosses a spine: ECMP routing,
// per-port egress queues and the fabric's registry counters all run on
// every call while the hosts run the full RPC stack.

RunResult RunClosEchoStorm(bool smoke) {
  const TimeNs window = (smoke ? 1 : 4) * kMillisecond;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  net::NetworkConfig cfg;
  net::TopologyConfig topo = net::TopologyConfig::Clos(192, 4, 8, 256);
  const uint32_t hpl = topo.HostsPerLeaf();
  net::Fabric fabric(&sim, cfg, topo);
  rpc::Rpc* servers[8];
  std::vector<std::unique_ptr<rpc::Rpc>> rpcs;
  uint64_t calls = 0;
  for (uint32_t leaf = 0; leaf < topo.num_leaves; ++leaf) {
    rpcs.push_back(std::make_unique<rpc::Rpc>(&fabric, leaf * hpl, 1));
    servers[leaf] = rpcs.back().get();
    servers[leaf]->RegisterHandler(1, EchoHandler);
  }
  for (uint32_t leaf = 0; leaf < topo.num_leaves; ++leaf) {
    net::NodeId target = ((leaf + 1) % topo.num_leaves) * hpl;
    for (uint32_t c = 1; c <= 4; ++c) {
      rpcs.push_back(std::make_unique<rpc::Rpc>(&fabric, leaf * hpl + c, 1));
      sim.Spawn(EchoClient(&sim, rpcs.back().get(), target, window, &calls));
    }
  }

  WallTimer wall;
  sim.RunUntil(window + 1 * kMillisecond);  // drain in-flight tails
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  DMRPC_CHECK_GT(calls, 0u);
  return res;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A scenario and its determinism pins: the executed-event count and the
/// FNV-1a of the metrics dump, full and smoke, which must match exactly.
struct Scenario {
  const char* name;
  RunResult (*run)(bool smoke);
  uint64_t events, metrics_fnv, smoke_events, smoke_fnv;
};

// The RPC and Clos rows' FNVs were last re-recorded when
// rpc.session_resets and rpc.bytes_copied became eager zero-valued keys:
// without those two keys each dump is byte-identical to the one before,
// and no event count moved.
const Scenario kScenarios[] = {
    {"event_churn", RunEventChurn, 3479858, 0x971f545e4e811400ULL, 347993,
     0xbb5e55b37505f28aULL},
    {"packet_forwarding", RunPacketForwarding, 1279944, 0x00f2b525c63d6235ULL,
     127944, 0x668ec7e7a09f2f28ULL},
    {"rpc_echo_storm", RunRpcEchoStorm, 2097230, 0xc0b94f8bb8759433ULL,
     209658, 0xc15464a2a82a37dfULL},
    {"rpc_large_transfer", RunRpcLargeTransfer, 624538, 0x98f54d6e5bb61d95ULL,
     63854, 0x08984a7e10b7fcd0ULL},
    {"clos_echo_storm", RunClosEchoStorm, 3506238, 0x70df1cbb830ebf45ULL,
     876214, 0xcc33cc49fb1b6628ULL},
};

std::string JsonRun(const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"events\": %llu, \"wall_ms\": %.3f, "
                "\"events_per_sec\": %.0f, \"metrics_fnv64\": \"%016llx\"}",
                static_cast<unsigned long long>(r.events), r.wall_ms,
                r.events_per_sec(),
                static_cast<unsigned long long>(r.metrics_fnv));
  return buf;
}

bool IsKnownScenario(const std::string& name) {
  for (const Scenario& sc : kScenarios) {
    if (name == sc.name) return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::vector<std::string> only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (IsKnownScenario(argv[i])) {
      only.push_back(argv[i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\nscenarios:", argv[i]);
      for (const Scenario& sc : kScenarios) {
        std::fprintf(stderr, " %s", sc.name);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  if (const char* env = std::getenv("DMRPC_SIMCORE_SMOKE")) {
    if (env[0] != '\0' && env[0] != '0') smoke = true;
  }
  const char* json_path = std::getenv("DMRPC_SIMCORE_JSON");
  if (json_path == nullptr) json_path = "BENCH_simcore.json";

  std::printf("simcore wall-clock suite (%s mode)\n",
              smoke ? "smoke" : "full");
  std::printf("%-20s %12s %10s %14s %8s %8s\n", "scenario", "events",
              "wall_ms", "events/sec", "determ", "traceok");

  std::string runs_json, trace_json;
  bool all_deterministic = true;
  bool all_zero_perturb = true;
  for (const Scenario& sc : kScenarios) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), sc.name) == only.end()) {
      continue;
    }
    RunResult r = sc.run(smoke);
    // Zero-perturbation pass: the same scenario with span recording on
    // must execute the identical event sequence and dump byte-identical
    // metrics. Untimed -- only the virtual-time fingerprints matter.
    g_trace_pass = true;
    RunResult traced = sc.run(smoke);
    g_trace_pass = false;
    bool zero_perturb =
        traced.events == r.events && traced.metrics_fnv == r.metrics_fnv;
    if (!zero_perturb) all_zero_perturb = false;
    bool same = smoke ? r.events == sc.smoke_events &&
                            r.metrics_fnv == sc.smoke_fnv
                      : r.events == sc.events && r.metrics_fnv == sc.metrics_fnv;
    if (!same) all_deterministic = false;
    std::printf("%-20s %12llu %10.2f %14.0f %8s %8s\n", sc.name,
                static_cast<unsigned long long>(r.events), r.wall_ms,
                r.events_per_sec(), same ? "ok" : "DIFF",
                zero_perturb ? "ok" : "DIFF");

    if (!runs_json.empty()) {
      runs_json += ",\n    ";
      trace_json += ", ";
    }
    runs_json += std::string("\"") + sc.name + "\": " + JsonRun(r);
    trace_json += std::string("\"") + sc.name +
                  "\": " + (zero_perturb ? "true" : "false");
  }

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"simcore\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full") << "\",\n  \"runs\": {\n    "
      << runs_json << "\n  },\n  \"trace_zero_perturbation\": { " << trace_json
      << " },\n  \"deterministic_vs_baseline\": "
      << (all_deterministic ? "true" : "false")
      << ",\n  \"tracing_zero_perturbation\": "
      << (all_zero_perturb ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("wrote %s\n", json_path);
  return all_deterministic ? 0 : 1;
}

}  // namespace
}  // namespace dmrpc::bench

int main(int argc, char** argv) { return dmrpc::bench::Main(argc, argv); }
