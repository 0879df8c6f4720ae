#include "net/nic.h"

#include <utility>

#include "common/logging.h"
#include "net/fabric.h"

namespace dmrpc::net {

Nic::Nic(sim::Simulation* sim, Fabric* fabric, NodeId node,
         const NetworkConfig& cfg)
    : sim_(sim), fabric_(fabric), node_(node), cfg_(cfg) {
  obs::MetricsRegistry& m = sim_->metrics();
  m_tx_packets_ = m.GetCounter("net.tx_packets");
  m_tx_bytes_ = m.GetCounter("net.tx_bytes");
  m_rx_packets_ = m.GetCounter("net.rx_packets");
  m_rx_bytes_ = m.GetCounter("net.rx_bytes");
  m_rx_dropped_ = m.GetCounter("net.rx_dropped_no_listener");
  sim_->Spawn(TxPump());
}

void Nic::Send(Packet pkt) {
  DMRPC_CHECK_EQ(pkt.src, node_) << "packet src must be the owning host";
  DMRPC_CHECK_LT(pkt.dst, fabric_->num_nodes());
  pkt.id = fabric_->NextPacketId();
  stats_.tx_packets++;
  stats_.tx_bytes += pkt.payload_size();
  m_tx_packets_->Inc();
  m_tx_bytes_->Inc(pkt.payload_size());
  fabric_->Trace(TraceStage::kNicTx, pkt);
  tx_queue_.Push(std::move(pkt));
}

void Nic::BindPort(Port port, sim::Channel<Packet>* inbox) {
  DMRPC_CHECK(listeners_.Find(port) == nullptr)
      << "port " << port << " already bound on node " << node_;
  listeners_.Insert(port, inbox);
}

void Nic::UnbindPort(Port port) { listeners_.Erase(port); }

void Nic::Deliver(Packet pkt) {
  if (pkt.fcs_bad) {
    // Corrupted frame: the FCS check fails in NIC hardware, so software
    // never sees the packet (it costs wire bandwidth, unlike a switch
    // drop, but is otherwise equivalent to loss).
    stats_.rx_fcs_errors++;
    fabric_->DropReasonCounter(DropReason::kFcsBad)->Inc();
    fabric_->Trace(TraceStage::kDropped, pkt);
    return;
  }
  stats_.rx_packets++;
  stats_.rx_bytes += pkt.payload_size();
  m_rx_packets_->Inc();
  m_rx_bytes_->Inc(pkt.payload_size());
  sim::Channel<Packet>** inbox = listeners_.Find(pkt.dst_port);
  if (inbox == nullptr) {
    stats_.rx_dropped_no_listener++;
    m_rx_dropped_->Inc();
    LOG_DEBUG << "node " << node_ << ": no listener on port " << pkt.dst_port;
    return;
  }
  (*inbox)->Push(std::move(pkt));
}

sim::Task<> Nic::TxPump() {
  for (;;) {
    Packet pkt = co_await tx_queue_.Pop();
    // NIC processing + wire serialization at link rate.
    TimeNs serialize =
        TransferNs(cfg_.WireBytes(pkt.payload_size()), cfg_.bytes_per_ns());
    uint64_t span = 0;
    if (sim_->tracer().enabled()) {
      span = sim_->tracer().BeginSpan(
          pkt.trace, "net", "net.nic_tx", sim_->Now(), node_,
          "{\"pkt\":" + std::to_string(pkt.id) +
              ",\"bytes\":" + std::to_string(pkt.payload_size()) + "}");
    }
    co_await sim::Delay(cfg_.nic_overhead_ns + serialize);
    sim_->tracer().EndSpan(span, sim_->Now());
    fabric_->Trace(TraceStage::kOnWire, pkt);
    fabric_->SendToSwitch(std::move(pkt));
  }
}

}  // namespace dmrpc::net
