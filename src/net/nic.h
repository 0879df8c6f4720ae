#ifndef DMRPC_NET_NIC_H_
#define DMRPC_NET_NIC_H_

#include <cstdint>

#include "common/flat_map.h"
#include "net/config.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/channel.h"
#include "sim/simulation.h"

namespace dmrpc::net {

class Fabric;

/// Per-NIC traffic counters.
struct NicStats {
  uint64_t tx_packets = 0;
  uint64_t tx_bytes = 0;  // payload bytes
  uint64_t rx_packets = 0;
  uint64_t rx_bytes = 0;
  uint64_t rx_dropped_no_listener = 0;
  /// Frames discarded on arrival because a corruption fault invalidated
  /// their frame check sequence (see Packet::fcs_bad). The registry
  /// counts them fleet-wide as `net.drop_reason.fcs_bad`.
  uint64_t rx_fcs_errors = 0;
};

/// One 100 GbE port attached to a host. Outbound packets are serialized
/// at link bandwidth by a TX pump coroutine (so concurrent senders on one
/// host share the port, exactly like real NIC queue contention). Inbound
/// packets are demultiplexed by destination port to bound listeners.
class Nic {
 public:
  Nic(sim::Simulation* sim, Fabric* fabric, NodeId node,
      const NetworkConfig& cfg);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  NodeId node() const { return node_; }
  const NicStats& stats() const { return stats_; }

  /// Queues a packet for transmission. Must run inside the simulation.
  void Send(Packet pkt);

  /// Registers `inbox` to receive packets addressed to `port`.
  /// The inbox must outlive the binding.
  void BindPort(Port port, sim::Channel<Packet>* inbox);
  void UnbindPort(Port port);

  /// Called by the fabric when a packet arrives at this host.
  void Deliver(Packet pkt);

 private:
  sim::Task<> TxPump();

  sim::Simulation* sim_;
  Fabric* fabric_;
  NodeId node_;
  const NetworkConfig& cfg_;
  sim::Channel<Packet> tx_queue_;
  /// Port -> inbox. Looked up once per delivered packet; flat
  /// open-addressing map, not a hashed bucket chase.
  FlatMap64<sim::Channel<Packet>*> listeners_;
  NicStats stats_;
  // Fleet-wide aggregates in the simulation's registry (cached pointers;
  // the per-NIC breakdown stays in stats_).
  obs::Counter* m_tx_packets_;
  obs::Counter* m_tx_bytes_;
  obs::Counter* m_rx_packets_;
  obs::Counter* m_rx_bytes_;
  obs::Counter* m_rx_dropped_;
};

}  // namespace dmrpc::net

#endif  // DMRPC_NET_NIC_H_
