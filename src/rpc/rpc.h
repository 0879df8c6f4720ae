#ifndef DMRPC_RPC_RPC_H_
#define DMRPC_RPC_RPC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.h"

#include "common/status.h"
#include "common/units.h"
#include "mem/memory_model.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "rpc/wire.h"
#include "sim/channel.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace dmrpc::rpc {

/// User handler id, dispatched server-side.
using ReqType = uint8_t;
/// Client-local session index returned by Connect.
using SessionId = uint16_t;

/// Tuning knobs of the RPC protocol (eRPC-inspired defaults).
struct RpcConfig {
  /// Max un-acknowledged request packets in flight per session.
  int credits = 8;
  /// Retransmission timeout (real eRPC defaults to 5 ms; datacenter RTTs
  /// are microseconds, but the timeout must ride out server-side
  /// queueing under load).
  TimeNs rto_ns = 2 * kMillisecond;
  /// Exponential backoff cap: each retransmission doubles the effective
  /// RTO of that request (or handshake) up to this value, so a lossy or
  /// partitioned path is probed at a decaying rate instead of a constant
  /// hammer. Set <= rto_ns to disable backoff (fixed RTO).
  TimeNs rto_max_ns = 64 * kMillisecond;
  /// Retransmissions before a request fails with TimedOut.
  int max_retries = 10;
  /// Per-packet receive-side dispatch CPU cost (single dispatch thread).
  TimeNs rx_sw_ns = 180;
  /// Per-packet transmit-side CPU cost.
  TimeNs tx_sw_ns = 180;
  /// Hard cap on message payload size.
  size_t max_msg_bytes = 8u << 20;
  /// Outstanding requests per session (slot count).
  int session_slots = 8;
};

/// Context handed to request handlers.
struct ReqContext {
  net::NodeId peer = net::kInvalidNode;
  net::Port peer_port = 0;
  ReqType req_type = 0;
  /// The request's causal identity (trace id + the handler's span). Also
  /// installed as the ambient context for the handler coroutine, so
  /// nested RPCs and DM operations inherit it without touching this.
  obs::TraceContext trace;
};

/// A request handler: a coroutine consuming the request payload and
/// producing the response payload. Handlers may co_await freely (model
/// CPU time with sim::Delay, call other RPCs, touch DM, ...).
using Handler = std::function<sim::Task<MsgBuffer>(ReqContext, MsgBuffer)>;

/// Endpoint-wide counters. The same events also feed the simulation's
/// MetricsRegistry under `rpc.*` names (aggregated across endpoints),
/// plus registry-only timers for session-level waits: `rpc.slot_wait`
/// (time a Call queues for a free session slot) and `rpc.credit_stall`
/// (time a request packet waits for flow-control credits).
struct RpcStats {
  uint64_t requests_sent = 0;
  uint64_t responses_received = 0;
  uint64_t requests_handled = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t duplicate_requests = 0;
  uint64_t stale_packets = 0;
  /// Sessions torn down by ResetSession/ResetAllSessions (crash model).
  uint64_t session_resets = 0;
  uint64_t tx_packets = 0;
  uint64_t rx_packets = 0;
  /// Times a request packet had to wait for a flow-control credit.
  uint64_t credit_stalls = 0;
};

/// A datacenter RPC endpoint bound to one (host, UDP port) pair --
/// the equivalent of an eRPC `Rpc` object owned by one thread.
///
/// Reliability is client-driven: requests are retransmitted after an RTO
/// and the server deduplicates by (session, slot, req_id), caching the
/// last response per slot for at-most-once execution. Flow control is
/// credit-based per session; large messages are fragmented to the MTU and
/// reassembled on the far side.
///
/// Lifetime: the endpoint must outlive any simulation steps executed
/// after its creation (create Simulation, then Fabric, then Rpc objects;
/// destroy in reverse order without stepping in between).
class Rpc {
 public:
  Rpc(net::Fabric* fabric, net::NodeId node, net::Port port,
      RpcConfig cfg = RpcConfig());
  ~Rpc();

  Rpc(const Rpc&) = delete;
  Rpc& operator=(const Rpc&) = delete;

  net::NodeId node() const { return node_; }
  net::Port port() const { return port_; }
  const RpcConfig& config() const { return cfg_; }
  const RpcStats& stats() const { return stats_; }

  /// Registers the coroutine handler for a request type. Must be called
  /// before any request of that type arrives.
  void RegisterHandler(ReqType req_type, Handler handler);

  /// Establishes a session to a remote endpoint. Completes after the
  /// handshake round trip (retransmitted on loss).
  sim::Task<StatusOr<SessionId>> Connect(net::NodeId remote,
                                         net::Port remote_port);

  /// Closes a session. Outstanding calls must have completed.
  sim::Task<Status> Disconnect(SessionId session);

  /// Issues a request and suspends until the response (or failure)
  /// arrives. Concurrency per session is bounded by the slot count;
  /// excess callers queue FIFO.
  sim::Task<StatusOr<MsgBuffer>> Call(SessionId session, ReqType req_type,
                                      MsgBuffer request);

  /// Payload capacity of one packet.
  size_t max_data_per_packet() const;

  /// Fails every outstanding operation (connect, call, disconnect) on
  /// `session` with `status` and marks the session closed; later Calls on
  /// it fail immediately. Used by the fault layer when the peer crashes
  /// or the local process gives up on the path. Idempotent.
  void ResetSession(SessionId session, Status status);

  /// Crash model for this endpoint's host: resets every client session
  /// and discards all server-side session state (a restarted process
  /// reconnects from scratch; stale packets from old sessions are
  /// dropped as unknown). Safe to call repeatedly.
  void ResetAllSessions(Status status);

  /// Attaches a per-host memory-bandwidth meter: every transmitted or
  /// received payload byte is charged as one DRAM transfer (NIC DMA),
  /// which is what Fig. 6b measures on the load-balancer server.
  void set_memory_meter(mem::BandwidthMeter* meter) { meter_ = meter; }

 private:
  /// Per-slot scatter-gather reassembly: each arriving fragment parks
  /// its payload slices (refcounted references into the packet's frame,
  /// which for locally-routed RPC is the sender's message chain) in
  /// fragment order; completion links them into the delivered MsgBuffer
  /// without ever coalescing into a contiguous buffer.
  struct Reassembly {
    std::vector<std::vector<sim::BufSlice>> frags;  // per-fragment slices
    std::vector<bool> seen;
    uint16_t pkts = 0;
    uint16_t total = 0;
    uint32_t msg_size = 0;

    void Clear() {
      frags.clear();
      seen.clear();
      pkts = 0;
      total = 0;
      msg_size = 0;
    }
    /// Arms reassembly from the first fragment's header.
    void Start(const PacketHeader& hdr) {
      total = hdr.num_pkts;
      msg_size = hdr.msg_size;
      frags.assign(total, {});
      seen.assign(total, false);
      pkts = 0;
    }
    bool complete() const { return total > 0 && pkts == total; }
    /// Links the parked fragments, in order, into one message chain and
    /// resets this reassembly.
    MsgBuffer TakeMessage() {
      MsgBuffer msg;
      for (std::vector<sim::BufSlice>& frag : frags) {
        for (sim::BufSlice& s : frag) msg.AppendSlice(std::move(s));
      }
      Clear();
      return msg;
    }
  };

  struct ClientSlot {
    bool busy = false;
    uint64_t seq = 0;  // per-slot sequence; req_id = seq*slots + idx
    uint64_t req_id = 0;
    ReqType req_type = 0;
    MsgBuffer request;  // retained for retransmission
    int credits_consumed = 0;
    int credits_returned = 0;
    int retries = 0;
    TimeNs last_tx = 0;
    /// Effective RTO for this request; doubles on each retransmission up
    /// to rto_max_ns, resets on a server progress ack.
    TimeNs cur_rto_ns = 0;
    /// Wire context carried on every request fragment of this call --
    /// stored here (not read from the ambient slot) so retransmissions,
    /// which are issued by the scanner far outside the caller's context,
    /// carry the identical trace context as the original send.
    obs::TraceContext trace;
    Reassembly resp;
    std::unique_ptr<sim::Completion<Status>> done;
  };

  struct ClientSession {
    net::NodeId remote = net::kInvalidNode;
    net::Port remote_port = 0;
    uint16_t remote_session_id = 0;
    bool connected = false;
    bool closing = false;
    bool closed = false;
    int connect_retries = 0;
    TimeNs last_connect_tx = 0;
    /// Effective RTO for the connect/disconnect handshake (same backoff
    /// rule as ClientSlot::cur_rto_ns).
    TimeNs cur_connect_rto_ns = 0;
    std::unique_ptr<sim::Completion<Status>> connect_done;
    std::unique_ptr<sim::Completion<Status>> disconnect_done;
    std::vector<ClientSlot> slots;
    std::unique_ptr<sim::Semaphore> slot_sem;
    std::unique_ptr<sim::Semaphore> credits;
  };

  struct ServerSlot {
    uint64_t cur_req_id = 0;
    bool in_progress = false;
    bool have_response = false;
    ReqType req_type = 0;
    /// Wire context of the current request (from its first fragment);
    /// echoed on every response fragment and credit return so any packet
    /// of the exchange can be attributed to its trace.
    obs::TraceContext trace;
    MsgBuffer cached_response;
    Reassembly req;
  };

  struct ServerSession {
    net::NodeId remote = net::kInvalidNode;
    net::Port remote_port = 0;
    uint16_t client_session_id = 0;
    std::vector<ServerSlot> slots;
  };

  // -- packet processing --
  sim::Task<> Dispatch();
  void HandlePacket(net::Packet pkt);
  void OnConnect(const net::Packet& pkt, const PacketHeader& hdr);
  void OnConnectAck(const PacketHeader& hdr);
  void OnRequestPacket(const net::Packet& pkt, const PacketHeader& hdr);
  void OnResponsePacket(const net::Packet& pkt, const PacketHeader& hdr);
  void OnCreditReturn(const PacketHeader& hdr);
  void OnDisconnect(const net::Packet& pkt, const PacketHeader& hdr);
  void OnDisconnectAck(const PacketHeader& hdr);

  // -- server side --
  sim::Task<> RunHandler(uint16_t server_session_id, int slot_idx,
                         uint64_t req_id, ReqType req_type, MsgBuffer req);
  sim::Task<> SendResponse(uint16_t server_session_id, int slot_idx,
                           uint64_t req_id, ReqType req_type);
  void SendCreditReturn(const ServerSession& sess, uint64_t req_id,
                        uint16_t pkt_idx);

  // -- client side --
  sim::Task<> SendRequestPackets(SessionId session_id, int slot_idx,
                                 bool is_retransmit);
  sim::Task<> RetransmitScanner();
  void FinishSlot(ClientSession& sess, ClientSlot& slot, Status status);
  void KickScanner();
  /// Next effective RTO after a retransmission (exponential, capped).
  TimeNs NextRto(TimeNs cur) const;

  /// Sends a control packet (header only, no payload).
  void SendPacket(net::NodeId dst, net::Port dst_port, const PacketHeader& hdr);
  /// Sends one message fragment: the header is encoded into a small
  /// pooled head buffer and bytes [off, off+len) of `msg` ride along as
  /// sub-slice references of the message chain -- no payload bytes are
  /// copied. `cur` is the caller's resumable position in the chain (the
  /// fragment loops walk the message in ascending order).
  void SendPacket(net::NodeId dst, net::Port dst_port, const PacketHeader& hdr,
                  const MsgBuffer& msg, size_t off, size_t len,
                  MsgBuffer::SliceCursor* cur);

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  net::NodeId node_;
  net::Port port_;
  RpcConfig cfg_;

  sim::Channel<net::Packet> inbox_;
  std::array<Handler, 256> handlers_;

  std::vector<std::unique_ptr<ClientSession>> client_sessions_;
  std::vector<std::unique_ptr<ServerSession>> server_sessions_;
  /// Dedup for connect handshakes: (src node, src port, client session id)
  /// packed into one uint64 key -> server session index. Flat
  /// open-addressing map: one cache line per lookup instead of a tree
  /// walk (see common/flat_map.h).
  FlatMap64<uint16_t> server_session_index_;

  /// Number of client requests (or connects) awaiting completion; the
  /// retransmit scanner runs only while this is non-zero.
  int pending_ops_ = 0;
  sim::Channel<bool> scanner_wake_;
  bool scanner_active_ = false;

  mem::BandwidthMeter* meter_ = nullptr;
  RpcStats stats_;

  // Cached registry metrics (fleet-wide aggregates; per-endpoint detail
  // stays in stats_).
  obs::Counter* m_requests_sent_;
  obs::Counter* m_responses_;
  obs::Counter* m_requests_handled_;
  obs::Counter* m_retransmits_;
  obs::Counter* m_timeouts_;
  obs::Counter* m_credit_stalls_;
  obs::Counter* m_tx_packets_;
  obs::Counter* m_rx_packets_;
  obs::Counter* m_session_resets_;
  /// Outstanding client Calls (level + high-watermark).
  obs::Gauge* m_in_flight_;
  obs::Timer* m_call_ns_;
  obs::Timer* m_slot_wait_ns_;
  obs::Timer* m_credit_stall_ns_;
  obs::Timer* m_handler_ns_;
};

}  // namespace dmrpc::rpc

#endif  // DMRPC_RPC_RPC_H_
