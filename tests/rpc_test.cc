#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault.h"
#include "net/fabric.h"
#include "rpc/rpc.h"
#include "rpc/wire.h"
#include "sim/simulation.h"

namespace dmrpc::rpc {
namespace {

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(PacketHeaderTest, RoundTrips) {
  PacketHeader hdr;
  hdr.msg_type = MsgType::kResponse;
  hdr.req_type = 7;
  hdr.session_id = 300;
  hdr.pkt_idx = 5;
  hdr.num_pkts = 9;
  hdr.req_id = 0x123456789abcULL;
  hdr.msg_size = 65536;
  uint8_t wire[PacketHeader::kWireBytes];
  hdr.EncodeTo(wire);

  PacketHeader out;
  ASSERT_TRUE(out.DecodeFrom(wire, sizeof(wire)));
  EXPECT_EQ(out.msg_type, MsgType::kResponse);
  EXPECT_EQ(out.req_type, 7);
  EXPECT_EQ(out.session_id, 300);
  EXPECT_EQ(out.pkt_idx, 5);
  EXPECT_EQ(out.num_pkts, 9);
  EXPECT_EQ(out.req_id, 0x123456789abcULL);
  EXPECT_EQ(out.msg_size, 65536u);
}

TEST(PacketHeaderTest, RejectsShortBuffer) {
  PacketHeader hdr;
  uint8_t wire[PacketHeader::kWireBytes];
  hdr.EncodeTo(wire);
  PacketHeader out;
  EXPECT_FALSE(out.DecodeFrom(wire, 10));
}

TEST(PacketHeaderTest, RejectsBadMagic) {
  std::vector<uint8_t> wire(PacketHeader::kWireBytes, 0);
  PacketHeader out;
  EXPECT_FALSE(out.DecodeFrom(wire.data(), wire.size()));
}

TEST(MsgBufferTest, AppendReadRoundTrip) {
  MsgBuffer buf;
  buf.Append<uint32_t>(7);
  buf.Append<uint64_t>(1ull << 40);
  buf.AppendString("hello");
  buf.Append<uint8_t>(3);
  EXPECT_EQ(buf.Read<uint32_t>(), 7u);
  EXPECT_EQ(buf.Read<uint64_t>(), 1ull << 40);
  EXPECT_EQ(buf.ReadString(), "hello");
  EXPECT_EQ(buf.Read<uint8_t>(), 3);
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(MsgBufferTest, SeekAndRemaining) {
  MsgBuffer buf;
  buf.Append<uint32_t>(1);
  buf.Append<uint32_t>(2);
  EXPECT_EQ(buf.remaining(), 8u);
  buf.Read<uint32_t>();
  EXPECT_EQ(buf.remaining(), 4u);
  buf.SeekTo(0);
  EXPECT_EQ(buf.Read<uint32_t>(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end RPC
// ---------------------------------------------------------------------------

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : sim_(11),
        fabric_(&sim_, net::NetworkConfig{}, 3),
        server_(&fabric_, 1, 100),
        client_(&fabric_, 0, 200) {
    server_.RegisterHandler(
        1, [](ReqContext, MsgBuffer req) -> sim::Task<MsgBuffer> {
          uint64_t v = req.Read<uint64_t>();
          MsgBuffer resp;
          resp.Append<uint64_t>(v + 1);
          co_return resp;
        });
    server_.RegisterHandler(
        2, [](ReqContext, MsgBuffer req) -> sim::Task<MsgBuffer> {
          // Echo with each byte incremented; exercises fragmentation.
          std::vector<uint8_t> bytes(req.size());
          req.ReadBytes(bytes.data(), bytes.size());
          for (uint8_t& b : bytes) b = static_cast<uint8_t>(b + 1);
          co_return MsgBuffer(bytes);
        });
    server_.RegisterHandler(
        3, [](ReqContext, MsgBuffer req) -> sim::Task<MsgBuffer> {
          co_await sim::Delay(5 * kMillisecond);  // slow handler
          MsgBuffer resp;
          resp.Append<uint8_t>(1);
          co_return resp;
        });
  }

  /// Runs `task` to completion on the fixture simulation.
  template <typename T>
  T Run(sim::Task<T> task) {
    auto out = std::make_shared<std::optional<T>>();
    auto wrap = [](sim::Task<T> t,
                   std::shared_ptr<std::optional<T>> out) -> sim::Task<> {
      out->emplace(co_await std::move(t));
    };
    sim_.Spawn(wrap(std::move(task), out));
    for (int i = 0; i < 100000000 && !out->has_value() && sim_.Step(); ++i) {
    }
    EXPECT_TRUE(out->has_value()) << "task did not finish";
    return std::move(**out);
  }

  sim::Task<StatusOr<MsgBuffer>> ConnectAndCall(ReqType type,
                                                MsgBuffer req) {
    auto sid = co_await client_.Connect(1, 100);
    if (!sid.ok()) co_return sid.status();
    co_return co_await client_.Call(*sid, type, std::move(req));
  }

  sim::Simulation sim_;
  net::Fabric fabric_;
  Rpc server_;
  Rpc client_;
};

TEST_F(RpcTest, SmallRequestResponse) {
  MsgBuffer req;
  req.Append<uint64_t>(41);
  auto resp = Run(ConnectAndCall(1, std::move(req)));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->Read<uint64_t>(), 42u);
  EXPECT_EQ(client_.stats().responses_received, 1u);
  EXPECT_EQ(server_.stats().requests_handled, 1u);
}

TEST_F(RpcTest, EmptyMessageIsValid) {
  auto resp = Run(ConnectAndCall(2, MsgBuffer()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->size(), 0u);
}

TEST_F(RpcTest, LargeMessageFragmentsAndReassembles) {
  std::vector<uint8_t> pattern(100000);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(i * 13);
  }
  MsgBuffer req(pattern);
  auto resp = Run(ConnectAndCall(2, req));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->size(), 100000u);
  std::vector<uint8_t> got = resp->CopyBytes();
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<uint8_t>(i * 13 + 1)) << i;
  }
  // 100000 / (4096-22) payload bytes -> 25 request packets.
  EXPECT_GT(client_.stats().tx_packets, 25u);
}

TEST_F(RpcTest, CallOnUnknownSessionFails) {
  auto resp = Run([&]() -> sim::Task<StatusOr<MsgBuffer>> {
    co_return co_await client_.Call(55, 1, MsgBuffer());
  }());
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsInvalidArgument());
}

TEST_F(RpcTest, OversizedMessageRejected) {
  auto resp = Run([&]() -> sim::Task<StatusOr<MsgBuffer>> {
    auto sid = co_await client_.Connect(1, 100);
    MsgBuffer huge(client_.config().max_msg_bytes + 1);
    co_return co_await client_.Call(*sid, 1, std::move(huge));
  }());
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsInvalidArgument());
}

TEST_F(RpcTest, ConcurrentCallsOnOneSession) {
  auto resp = Run([&]() -> sim::Task<StatusOr<MsgBuffer>> {
    auto sid = co_await client_.Connect(1, 100);
    if (!sid.ok()) co_return sid.status();
    // More concurrent calls than session slots (8): excess queue FIFO.
    struct State {
      sim::WaitGroup wg;
      int ok = 0;
    };
    auto state = std::make_shared<State>();
    state->wg.Add(20);
    for (int i = 0; i < 20; ++i) {
      auto one = [](Rpc* rpc, SessionId sid, int i,
                    std::shared_ptr<State> st) -> sim::Task<> {
        MsgBuffer req;
        req.Append<uint64_t>(static_cast<uint64_t>(i));
        auto r = co_await rpc->Call(sid, 1, std::move(req));
        if (r.ok() && r->Read<uint64_t>() == static_cast<uint64_t>(i) + 1) {
          st->ok++;
        }
        st->wg.Done();
      };
      sim::Simulation::Current()->Spawn(one(&client_, *sid, i, state));
    }
    co_await state->wg.Wait();
    MsgBuffer out;
    out.Append<uint32_t>(static_cast<uint32_t>(state->ok));
    co_return out;
  }());
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->Read<uint32_t>(), 20u);
}

TEST_F(RpcTest, SlowHandlerDoesNotTriggerSpuriousRetransmit) {
  // Handler takes 5 ms; RTO is 60 us. The client must keep retransmitting
  // without duplicating execution, and eventually get the answer.
  auto resp = Run(ConnectAndCall(3, MsgBuffer()));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(server_.stats().requests_handled, 1u);  // executed exactly once
  EXPECT_EQ(resp->Read<uint8_t>(), 1);
}

TEST_F(RpcTest, DisconnectCleansUp) {
  auto st = Run([&]() -> sim::Task<StatusOr<MsgBuffer>> {
    auto sid = co_await client_.Connect(1, 100);
    if (!sid.ok()) co_return sid.status();
    MsgBuffer req;
    req.Append<uint64_t>(1);
    auto r = co_await client_.Call(*sid, 1, std::move(req));
    if (!r.ok()) co_return r.status();
    Status d = co_await client_.Disconnect(*sid);
    if (!d.ok()) co_return d;
    // Calls after disconnect fail fast.
    auto r2 = co_await client_.Call(*sid, 1, MsgBuffer());
    if (r2.ok()) co_return Status::Internal("call after disconnect worked");
    MsgBuffer ok;
    co_return ok;
  }());
  EXPECT_TRUE(st.ok()) << st.status().ToString();
}

TEST_F(RpcTest, ConnectToDeadHostTimesOut) {
  // Node 2 runs no endpoint on port 777.
  auto resp = Run([&]() -> sim::Task<StatusOr<MsgBuffer>> {
    auto sid = co_await client_.Connect(2, 777);
    if (!sid.ok()) co_return sid.status();
    co_return MsgBuffer();
  }());
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsTimedOut());
  EXPECT_GE(client_.stats().retransmits, 5u);
  // The forced retransmissions also land in the simulation-wide metrics
  // registry (same counts as the per-endpoint stats here: one endpoint).
  EXPECT_EQ(sim_.metrics().CounterValue("rpc.retransmits"),
            client_.stats().retransmits);
  EXPECT_GE(sim_.metrics().CounterValue("rpc.timeouts"), 1u);
}

// ---------------------------------------------------------------------------
// Loss recovery
// ---------------------------------------------------------------------------

struct LossCase {
  double loss;
  int requests;
  uint32_t msg_bytes;
};

class RpcLossTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(RpcLossTest, AllRequestsEventuallyComplete) {
  LossCase param = GetParam();
  sim::Simulation sim(2024);
  net::NetworkConfig ncfg;
  ncfg.loss_probability = param.loss;
  net::Fabric fabric(&sim, ncfg, 2);
  Rpc server(&fabric, 1, 100);
  Rpc client(&fabric, 0, 200);
  server.RegisterHandler(
      1, [](ReqContext, MsgBuffer req) -> sim::Task<MsgBuffer> {
        std::vector<uint8_t> bytes(req.size());
        req.ReadBytes(bytes.data(), bytes.size());
        for (uint8_t& b : bytes) b = static_cast<uint8_t>(b ^ 0xff);
        co_return MsgBuffer(bytes);
      });
  int completed = 0;
  bool corrupted = false;
  auto driver = [&](Rpc* rpc) -> sim::Task<> {
    auto sid = co_await rpc->Connect(1, 100);
    if (!sid.ok()) co_return;
    for (int i = 0; i < param.requests; ++i) {
      std::vector<uint8_t> bytes(param.msg_bytes);
      for (size_t k = 0; k < bytes.size(); ++k) {
        bytes[k] = static_cast<uint8_t>(k + i);
      }
      MsgBuffer req(bytes);
      auto resp = co_await rpc->Call(*sid, 1, req);
      if (!resp.ok()) continue;
      std::vector<uint8_t> got = resp->CopyBytes();
      for (size_t k = 0; k < got.size(); ++k) {
        if (got[k] != static_cast<uint8_t>((k + i) ^ 0xff)) {
          corrupted = true;
        }
      }
      completed++;
    }
  };
  sim.Spawn(driver(&client));
  sim.RunFor(30 * kSecond);
  EXPECT_EQ(completed, param.requests);
  EXPECT_FALSE(corrupted);
  // At-most-once execution despite retransmissions.
  EXPECT_EQ(server.stats().requests_handled,
            static_cast<uint64_t>(param.requests));
}

INSTANTIATE_TEST_SUITE_P(
    LossLevels, RpcLossTest,
    ::testing::Values(LossCase{0.01, 150, 64}, LossCase{0.05, 100, 64},
                      LossCase{0.05, 40, 20000}, LossCase{0.20, 30, 64},
                      LossCase{0.10, 20, 50000}));

TEST(RpcCreditTest, CreditsBoundInFlightPackets) {
  sim::Simulation sim(3);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  RpcConfig cfg;
  cfg.credits = 2;  // tiny window
  Rpc server(&fabric, 1, 100, cfg);
  Rpc client(&fabric, 0, 200, cfg);
  server.RegisterHandler(
      1, [](ReqContext, MsgBuffer req) -> sim::Task<MsgBuffer> {
        MsgBuffer resp;
        resp.Append<uint64_t>(req.size());
        co_return resp;
      });
  bool done = false;
  auto driver = [&]() -> sim::Task<> {
    auto sid = co_await client.Connect(1, 100);
    // 64 KiB with a window of 2 packets still completes, just slower.
    MsgBuffer req(65536);
    auto resp = co_await client.Call(*sid, 1, std::move(req));
    done = resp.ok() && resp->Read<uint64_t>() == 65536;
  };
  sim.Spawn(driver());
  sim.RunFor(5 * kSecond);
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// One registration rule: every counter a layer can ever increment exists,
// at 0, from the layer's constructor on.
// ---------------------------------------------------------------------------

TEST(EagerRegistrationTest, FreshRpcAndInjectorDumpTheirCountersAtZero) {
  sim::Simulation sim(1);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  Rpc rpc(&fabric, 0, 100);
  fault::FaultInjector injector(&fabric);
  std::string dump = sim.DumpMetricsJson();
  for (const char* key :
       {"rpc.session_resets", "rpc.bytes_copied", "fault.switch_outages"}) {
    EXPECT_NE(dump.find(std::string("\"") + key + "\":0"), std::string::npos)
        << key;
  }
}

}  // namespace
}  // namespace dmrpc::rpc
