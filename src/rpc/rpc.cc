#include "rpc/rpc.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dmrpc::rpc {

namespace {
/// pkt_idx sentinel on a kCreditReturn marking "request in progress".
constexpr uint16_t kProgressAckIdx = 0xffff;

/// Packs a (node, port, client session id) triple into the flat-map key.
uint64_t SessionKey(net::NodeId node, net::Port port, uint16_t session_id) {
  return (static_cast<uint64_t>(node) << 32) |
         (static_cast<uint64_t>(port) << 16) | session_id;
}
}  // namespace

Rpc::Rpc(net::Fabric* fabric, net::NodeId node, net::Port port, RpcConfig cfg)
    : sim_(fabric->simulation()),
      fabric_(fabric),
      node_(node),
      port_(port),
      cfg_(cfg) {
  DMRPC_CHECK_GT(cfg_.credits, 0);
  DMRPC_CHECK_GT(cfg_.session_slots, 0);
  DMRPC_CHECK_GT(max_data_per_packet(), 0u);
  obs::MetricsRegistry& m = sim_->metrics();
  m_requests_sent_ = m.GetCounter("rpc.requests_sent");
  m_responses_ = m.GetCounter("rpc.responses_received");
  m_requests_handled_ = m.GetCounter("rpc.requests_handled");
  m_retransmits_ = m.GetCounter("rpc.retransmits");
  m_timeouts_ = m.GetCounter("rpc.timeouts");
  m_credit_stalls_ = m.GetCounter("rpc.credit_stalls");
  m_tx_packets_ = m.GetCounter("rpc.tx_packets");
  m_rx_packets_ = m.GetCounter("rpc.rx_packets");
  m_session_resets_ = m.GetCounter("rpc.session_resets");
  m.GetCounter("rpc.bytes_copied");  // incremented by AccountPayloadCopy
  m_in_flight_ = m.GetGauge("rpc.in_flight");
  m_call_ns_ = m.GetTimer("rpc.call");
  m_slot_wait_ns_ = m.GetTimer("rpc.slot_wait");
  m_credit_stall_ns_ = m.GetTimer("rpc.credit_stall");
  m_handler_ns_ = m.GetTimer("rpc.handler");
  fabric_->nic(node_)->BindPort(port_, &inbox_);
  sim_->Spawn(Dispatch());
  sim_->Spawn(RetransmitScanner());
}

Rpc::~Rpc() { fabric_->nic(node_)->UnbindPort(port_); }

size_t Rpc::max_data_per_packet() const {
  return fabric_->config().mtu_bytes - PacketHeader::kWireBytes;
}

void Rpc::RegisterHandler(ReqType req_type, Handler handler) {
  DMRPC_CHECK(!handlers_[req_type]) << "handler " << int{req_type}
                                    << " registered twice";
  handlers_[req_type] = std::move(handler);
}

void Rpc::SendPacket(net::NodeId dst, net::Port dst_port,
                     const PacketHeader& hdr) {
  net::Packet pkt;
  pkt.src = node_;
  pkt.src_port = port_;
  pkt.dst = dst;
  pkt.dst_port = dst_port;
  pkt.payload = sim_->buffer_pool().Acquire(PacketHeader::kWireBytes);
  hdr.EncodeTo(pkt.payload.AppendRaw(PacketHeader::kWireBytes));
  pkt.trace = hdr.trace_context();
  stats_.tx_packets++;
  m_tx_packets_->Inc();
  if (meter_ != nullptr) {
    meter_->Charge(mem::MemKind::kLocalDram, pkt.payload_size());
  }
  fabric_->nic(node_)->Send(std::move(pkt));
}

void Rpc::SendPacket(net::NodeId dst, net::Port dst_port,
                     const PacketHeader& hdr, const MsgBuffer& msg, size_t off,
                     size_t len, MsgBuffer::SliceCursor* cur) {
  net::Packet pkt;
  pkt.src = node_;
  pkt.src_port = port_;
  pkt.dst = dst;
  pkt.dst_port = dst_port;
  pkt.payload = sim_->buffer_pool().Acquire(PacketHeader::kWireBytes);
  hdr.EncodeTo(pkt.payload.AppendRaw(PacketHeader::kWireBytes));
  pkt.trace = hdr.trace_context();
  if (len > 0) msg.CollectSlices(cur, off, len, &pkt.frags);
  stats_.tx_packets++;
  m_tx_packets_->Inc();
  if (meter_ != nullptr) {
    // The NIC still DMAs every payload byte over the memory bus; slicing
    // saves CPU copies, not wire or DMA bytes.
    meter_->Charge(mem::MemKind::kLocalDram, pkt.payload_size());
  }
  fabric_->nic(node_)->Send(std::move(pkt));
}

/// Slices covering a received packet's payload after the protocol
/// header: packets built by SendPacket carry them in pkt.frags (the head
/// buffer is header-only); packets built contiguously (tests, tools)
/// yield one sub-slice of the head buffer, so reassembly is copy-free
/// either way.
static void AppendFragmentSlices(const net::Packet& pkt,
                                 std::vector<sim::BufSlice>* out) {
  if (pkt.payload.size() > PacketHeader::kWireBytes) {
    out->push_back(
        sim::BufSlice::Of(pkt.payload, PacketHeader::kWireBytes,
                          pkt.payload.size() - PacketHeader::kWireBytes));
  }
  for (const sim::BufSlice& s : pkt.frags) out->push_back(s);
}

// ---------------------------------------------------------------------------
// Session establishment
// ---------------------------------------------------------------------------

sim::Task<StatusOr<SessionId>> Rpc::Connect(net::NodeId remote,
                                            net::Port remote_port) {
  DMRPC_CHECK_LT(client_sessions_.size(), 65535u);
  auto sess = std::make_unique<ClientSession>();
  sess->remote = remote;
  sess->remote_port = remote_port;
  sess->connect_done = std::make_unique<sim::Completion<Status>>();
  sess->cur_connect_rto_ns = cfg_.rto_ns;
  sess->slots.resize(cfg_.session_slots);
  sess->slot_sem = std::make_unique<sim::Semaphore>(cfg_.session_slots);
  sess->credits = std::make_unique<sim::Semaphore>(cfg_.credits);
  SessionId id = static_cast<SessionId>(client_sessions_.size());
  ClientSession* s = sess.get();
  client_sessions_.push_back(std::move(sess));

  ++pending_ops_;
  KickScanner();
  PacketHeader hdr;
  hdr.msg_type = MsgType::kConnect;
  hdr.session_id = id;  // sender-side id; establishes the mapping
  s->last_connect_tx = sim_->Now();
  SendPacket(remote, remote_port, hdr);

  Status st = co_await s->connect_done->Wait();
  if (!st.ok()) co_return st;
  co_return id;
}

void Rpc::OnConnect(const net::Packet& pkt, const PacketHeader& hdr) {
  const uint64_t key = SessionKey(pkt.src, pkt.src_port, hdr.session_id);
  uint16_t index;
  if (const uint16_t* existing = server_session_index_.Find(key)) {
    index = *existing;  // duplicate connect: resend the ack
  } else {
    DMRPC_CHECK_LT(server_sessions_.size(), 65535u);
    auto sess = std::make_unique<ServerSession>();
    sess->remote = pkt.src;
    sess->remote_port = pkt.src_port;
    sess->client_session_id = hdr.session_id;
    sess->slots.resize(cfg_.session_slots);
    index = static_cast<uint16_t>(server_sessions_.size());
    server_sessions_.push_back(std::move(sess));
    server_session_index_.Insert(key, index);
  }
  PacketHeader ack;
  ack.msg_type = MsgType::kConnectAck;
  ack.session_id = hdr.session_id;  // client-side id
  ack.req_id = index;               // carries the server-side id
  SendPacket(pkt.src, pkt.src_port, ack);
}

void Rpc::OnConnectAck(const PacketHeader& hdr) {
  if (hdr.session_id >= client_sessions_.size()) {
    stats_.stale_packets++;
    return;
  }
  ClientSession& sess = *client_sessions_[hdr.session_id];
  if (sess.connected) return;  // duplicate ack
  sess.connected = true;
  sess.remote_session_id = static_cast<uint16_t>(hdr.req_id);
  --pending_ops_;
  sess.connect_done->Set(Status::OK());
}

sim::Task<Status> Rpc::Disconnect(SessionId session) {
  if (session >= client_sessions_.size()) {
    co_return Status::InvalidArgument("no such session");
  }
  ClientSession& sess = *client_sessions_[session];
  if (!sess.connected || sess.closing || sess.closed) {
    co_return Status::InvalidArgument("session not connected");
  }
  for (const ClientSlot& slot : sess.slots) {
    if (slot.busy) co_return Status::Aborted("session has outstanding calls");
  }
  sess.closing = true;
  sess.disconnect_done = std::make_unique<sim::Completion<Status>>();
  sess.connect_retries = 0;
  sess.cur_connect_rto_ns = cfg_.rto_ns;
  ++pending_ops_;
  KickScanner();
  PacketHeader hdr;
  hdr.msg_type = MsgType::kDisconnect;
  hdr.session_id = sess.remote_session_id;
  sess.last_connect_tx = sim_->Now();
  SendPacket(sess.remote, sess.remote_port, hdr);
  Status st = co_await sess.disconnect_done->Wait();
  co_return st;
}

void Rpc::OnDisconnect(const net::Packet& pkt, const PacketHeader& hdr) {
  uint16_t index = hdr.session_id;
  uint16_t client_id = 0;
  net::NodeId remote = pkt.src;
  net::Port remote_port = pkt.src_port;
  if (index < server_sessions_.size() && server_sessions_[index] != nullptr) {
    ServerSession& sess = *server_sessions_[index];
    client_id = sess.client_session_id;
    server_session_index_.Erase(
        SessionKey(sess.remote, sess.remote_port, client_id));
    server_sessions_[index] = nullptr;
  } else {
    // Already removed (duplicate disconnect); we cannot recover the
    // client id from our state, but the client encoded it in req_id.
    client_id = static_cast<uint16_t>(hdr.req_id);
  }
  PacketHeader ack;
  ack.msg_type = MsgType::kDisconnectAck;
  ack.session_id = client_id;
  SendPacket(remote, remote_port, ack);
}

void Rpc::OnDisconnectAck(const PacketHeader& hdr) {
  if (hdr.session_id >= client_sessions_.size()) {
    stats_.stale_packets++;
    return;
  }
  ClientSession& sess = *client_sessions_[hdr.session_id];
  if (!sess.closing || sess.closed) return;
  sess.closed = true;
  sess.closing = false;
  --pending_ops_;
  sess.disconnect_done->Set(Status::OK());
}

// ---------------------------------------------------------------------------
// Client request path
// ---------------------------------------------------------------------------

sim::Task<StatusOr<MsgBuffer>> Rpc::Call(SessionId session, ReqType req_type,
                                         MsgBuffer request) {
  if (session >= client_sessions_.size()) {
    co_return Status::InvalidArgument("no such session");
  }
  ClientSession& sess = *client_sessions_[session];
  if (sess.closed || sess.closing) {
    co_return Status::InvalidArgument("session closed");
  }
  if (request.size() > cfg_.max_msg_bytes) {
    co_return Status::InvalidArgument("message too large");
  }
  if (!sess.connected) {
    // Wait for the in-flight handshake driven by Connect().
    Status st = co_await sess.connect_done->Wait();
    if (!st.ok()) co_return st;
  }

  const TimeNs call_start = sim_->Now();
  // The caller's ambient context, or a fresh root trace when this Call
  // *is* the root of a request (every traced span below hangs off it).
  const obs::TraceContext parent = obs::EnsureTraceContext(sim_->tracer());
  uint64_t call_span = 0;
  if (sim_->tracer().enabled()) {
    call_span = sim_->tracer().BeginSpan(
        parent, "rpc", "rpc.call", call_start, node_,
        "{\"session\":" + std::to_string(session) +
            ",\"req_type\":" + std::to_string(req_type) +
            ",\"bytes\":" + std::to_string(request.size()) + "}");
  }
  co_await sess.slot_sem->Acquire();
  // The session may have been reset while we queued for a slot.
  if (sess.closed) {
    sess.slot_sem->Release();
    sim_->tracer().EndSpan(call_span, sim_->Now());
    co_return Status::Aborted("session reset");
  }
  m_slot_wait_ns_->Record(sim_->Now() - call_start);
  int slot_idx = -1;
  for (size_t i = 0; i < sess.slots.size(); ++i) {
    if (!sess.slots[i].busy) {
      slot_idx = static_cast<int>(i);
      break;
    }
  }
  DMRPC_CHECK_GE(slot_idx, 0) << "slot semaphore/flag mismatch";
  ClientSlot& slot = sess.slots[slot_idx];

  slot.busy = true;
  slot.seq += 1;
  slot.req_id = slot.seq * cfg_.session_slots + slot_idx;
  slot.req_type = req_type;
  // What travels on the wire: the request's trace with this call's span
  // as the causal parent (or the caller's span when recording is off --
  // span ids are only minted while the tracer is enabled).
  slot.trace = obs::TraceContext{parent.trace_id,
                                 call_span != 0 ? call_span : parent.span_id,
                                 parent.flags};
  slot.request = std::move(request);
  slot.credits_consumed = 0;
  slot.credits_returned = 0;
  slot.retries = 0;
  slot.cur_rto_ns = cfg_.rto_ns;
  slot.resp.Clear();
  slot.done = std::make_unique<sim::Completion<Status>>();

  ++pending_ops_;
  KickScanner();
  stats_.requests_sent++;
  m_requests_sent_->Inc();
  // Level of outstanding calls; the gauge's high-watermark is the peak
  // concurrency the client side ever reached (the level itself drains to
  // zero by run end on any workload that completes).
  m_in_flight_->Add(1);
  co_await SendRequestPackets(session, slot_idx, /*is_retransmit=*/false);

  Status st = co_await slot.done->Wait();
  m_in_flight_->Add(-1);
  // The response *is* the received fragment slices, linked in order --
  // the handler-visible cursor reads across the slice boundaries.
  MsgBuffer response = slot.resp.TakeMessage();
  slot.request.Clear();
  slot.busy = false;
  sess.slot_sem->Release();
  m_call_ns_->Record(sim_->Now() - call_start);
  if (call_span != 0) {
    sim_->tracer().AttributeSpanArg(call_span, "resp_bytes", response.size());
  }
  sim_->tracer().EndSpan(call_span, sim_->Now());
  if (!st.ok()) co_return st;
  co_return response;
}

sim::Task<> Rpc::SendRequestPackets(SessionId session_id, int slot_idx,
                                    bool is_retransmit) {
  ClientSession& sess = *client_sessions_[session_id];
  ClientSlot& slot = sess.slots[slot_idx];
  const uint64_t req_id = slot.req_id;
  const size_t chunk = max_data_per_packet();
  const size_t total_bytes = slot.request.size();
  const uint16_t num_pkts = static_cast<uint16_t>(
      std::max<size_t>(1, (total_bytes + chunk - 1) / chunk));
  MsgBuffer::SliceCursor cur;

  for (uint16_t i = 0; i < num_pkts; ++i) {
    if (!is_retransmit) {
      const TimeNs credit_wait_start = sim_->Now();
      co_await sess.credits->Acquire();
      const TimeNs stalled = sim_->Now() - credit_wait_start;
      if (stalled > 0) {
        stats_.credit_stalls++;
        m_credit_stalls_->Inc();
        m_credit_stall_ns_->Record(stalled);
      }
      // The request may have failed (timeout) while we waited for a
      // credit; put the permit back and stop.
      if (!slot.busy || slot.req_id != req_id) {
        sess.credits->Release();
        co_return;
      }
      slot.credits_consumed++;
    } else if (!slot.busy || slot.req_id != req_id) {
      co_return;
    }
    co_await sim::Delay(cfg_.tx_sw_ns);
    if (!slot.busy || slot.req_id != req_id) co_return;

    PacketHeader hdr;
    hdr.msg_type = MsgType::kRequest;
    hdr.req_type = slot.req_type;
    hdr.session_id = sess.remote_session_id;
    hdr.pkt_idx = i;
    hdr.num_pkts = num_pkts;
    hdr.req_id = req_id;
    hdr.msg_size = static_cast<uint32_t>(total_bytes);
    // Every fragment -- original or retransmitted -- carries the call's
    // stored context, so the context survives fragmentation and
    // retransmission by construction.
    hdr.set_trace_context(slot.trace);
    size_t off = static_cast<size_t>(i) * chunk;
    size_t len = std::min(chunk, total_bytes - off);
    if (total_bytes == 0) len = 0;
    slot.last_tx = sim_->Now();
    SendPacket(sess.remote, sess.remote_port, hdr, slot.request, off, len,
               &cur);
  }
}

void Rpc::OnResponsePacket(const net::Packet& pkt, const PacketHeader& hdr) {
  if (hdr.session_id >= client_sessions_.size()) {
    stats_.stale_packets++;
    return;
  }
  ClientSession& sess = *client_sessions_[hdr.session_id];
  int slot_idx = static_cast<int>(hdr.req_id % cfg_.session_slots);
  ClientSlot& slot = sess.slots[slot_idx];
  if (!slot.busy || slot.req_id != hdr.req_id) {
    stats_.stale_packets++;
    return;
  }
  if (slot.done == nullptr || slot.done->ready()) {
    // Already failed (timeout or session reset) in this very instant;
    // the owning Call has not reclaimed the slot yet.
    stats_.stale_packets++;
    return;
  }
  if (slot.resp.total > 0 && slot.resp.pkts == slot.resp.total) {
    stats_.stale_packets++;  // duplicate after completion
    return;
  }
  if (slot.resp.total == 0) {
    // First response packet: the final request packet is now implicitly
    // acknowledged, returning one credit.
    slot.resp.Start(hdr);
    if (slot.credits_returned < slot.credits_consumed) {
      slot.credits_returned++;
      sess.credits->Release();
    }
  }
  if (hdr.pkt_idx >= slot.resp.total || slot.resp.seen[hdr.pkt_idx]) {
    stats_.stale_packets++;
    return;
  }
  size_t off = static_cast<size_t>(hdr.pkt_idx) * max_data_per_packet();
  size_t frag_len = pkt.payload_size() - PacketHeader::kWireBytes;
  DMRPC_CHECK_LE(off + frag_len, slot.resp.msg_size);
  AppendFragmentSlices(pkt, &slot.resp.frags[hdr.pkt_idx]);
  slot.resp.seen[hdr.pkt_idx] = true;
  slot.resp.pkts++;
  if (slot.resp.pkts == slot.resp.total) {
    stats_.responses_received++;
    m_responses_->Inc();
    FinishSlot(sess, slot, Status::OK());
  }
}

void Rpc::OnCreditReturn(const PacketHeader& hdr) {
  if (hdr.session_id >= client_sessions_.size()) {
    stats_.stale_packets++;
    return;
  }
  ClientSession& sess = *client_sessions_[hdr.session_id];
  int slot_idx = static_cast<int>(hdr.req_id % cfg_.session_slots);
  ClientSlot& slot = sess.slots[slot_idx];
  if (!slot.busy || slot.req_id != hdr.req_id) {
    stats_.stale_packets++;
    return;
  }
  if (hdr.pkt_idx == kProgressAckIdx) {
    // The server is alive and still executing: reset the retry budget
    // and drop back to the base RTO.
    slot.retries = 0;
    slot.cur_rto_ns = cfg_.rto_ns;
    slot.last_tx = sim_->Now();
    return;
  }
  if (slot.credits_returned < slot.credits_consumed) {
    slot.credits_returned++;
    sess.credits->Release();
  }
}

void Rpc::FinishSlot(ClientSession& sess, ClientSlot& slot, Status status) {
  // Reconcile credits lost to dropped CR packets.
  while (slot.credits_returned < slot.credits_consumed) {
    slot.credits_returned++;
    sess.credits->Release();
  }
  --pending_ops_;
  slot.done->Set(std::move(status));
  // The slot stays busy until the owning Call() drains the response and
  // releases the slot semaphore.
}

// ---------------------------------------------------------------------------
// Session reset (crash model)
// ---------------------------------------------------------------------------

void Rpc::ResetSession(SessionId session, Status status) {
  if (session >= client_sessions_.size()) return;
  ClientSession& sess = *client_sessions_[session];
  if (sess.closed) return;
  // Pending handshake: the Connect() caller is parked on connect_done.
  if (!sess.connected && sess.connect_done != nullptr &&
      !sess.connect_done->ready()) {
    --pending_ops_;
    sess.connect_done->Set(status);
  }
  // Pending teardown.
  if (sess.closing && sess.disconnect_done != nullptr &&
      !sess.disconnect_done->ready()) {
    --pending_ops_;
    sess.disconnect_done->Set(status);
  }
  sess.closing = false;
  sess.closed = true;
  // In-flight calls. Failing the slot resumes the owning Call(), which
  // releases the slot semaphore; queued callers then observe closed.
  for (ClientSlot& slot : sess.slots) {
    if (slot.busy && slot.done != nullptr && !slot.done->ready()) {
      FinishSlot(sess, slot, status);
    }
  }
  stats_.session_resets++;
  m_session_resets_->Inc();
  if (sim_->tracer().enabled()) {
    sim_->tracer().Instant("rpc", "rpc.session_reset", sim_->Now(), node_,
                           "{\"session\":" + std::to_string(session) + "}");
  }
}

void Rpc::ResetAllSessions(Status status) {
  for (size_t si = 0; si < client_sessions_.size(); ++si) {
    ResetSession(static_cast<SessionId>(si), status);
  }
  // Server side: a restarted process has no memory of its sessions.
  // Stale packets from old sessions hit the null entry and are counted
  // as stale; clients re-connect and get fresh entries.
  for (auto& sess : server_sessions_) sess = nullptr;
  server_session_index_ = FlatMap64<uint16_t>();
}

// ---------------------------------------------------------------------------
// Retransmission
// ---------------------------------------------------------------------------

void Rpc::KickScanner() {
  if (!scanner_active_) {
    scanner_active_ = true;
    scanner_wake_.Push(true);
  }
}

TimeNs Rpc::NextRto(TimeNs cur) const {
  if (cfg_.rto_max_ns <= cfg_.rto_ns) return cur;  // backoff disabled
  return std::min<TimeNs>(cur * 2, cfg_.rto_max_ns);
}

sim::Task<> Rpc::RetransmitScanner() {
  for (;;) {
    if (pending_ops_ == 0) {
      scanner_active_ = false;
      (void)co_await scanner_wake_.Pop();
      scanner_active_ = true;
      continue;
    }
    co_await sim::Delay(std::max<TimeNs>(1, cfg_.rto_ns / 2));
    TimeNs now = sim_->Now();
    for (size_t si = 0; si < client_sessions_.size(); ++si) {
      ClientSession& sess = *client_sessions_[si];
      // Pending handshake.
      if (!sess.connected && !sess.closed && sess.connect_done != nullptr &&
          !sess.connect_done->ready() &&
          now - sess.last_connect_tx >= sess.cur_connect_rto_ns) {
        if (sess.connect_retries >= cfg_.max_retries) {
          stats_.timeouts++;
          m_timeouts_->Inc();
          sess.closed = true;
          --pending_ops_;
          sess.connect_done->Set(Status::TimedOut("connect timed out"));
          continue;
        }
        sess.connect_retries++;
        sess.cur_connect_rto_ns = NextRto(sess.cur_connect_rto_ns);
        stats_.retransmits++;
        m_retransmits_->Inc();
        PacketHeader hdr;
        hdr.msg_type = MsgType::kConnect;
        hdr.session_id = static_cast<uint16_t>(si);
        sess.last_connect_tx = now;
        SendPacket(sess.remote, sess.remote_port, hdr);
        continue;
      }
      // Pending teardown.
      if (sess.closing && sess.disconnect_done != nullptr &&
          !sess.disconnect_done->ready() &&
          now - sess.last_connect_tx >= sess.cur_connect_rto_ns) {
        if (sess.connect_retries >= cfg_.max_retries) {
          stats_.timeouts++;
          m_timeouts_->Inc();
          sess.closed = true;
          sess.closing = false;
          --pending_ops_;
          sess.disconnect_done->Set(Status::TimedOut("disconnect timed out"));
          continue;
        }
        sess.connect_retries++;
        sess.cur_connect_rto_ns = NextRto(sess.cur_connect_rto_ns);
        stats_.retransmits++;
        m_retransmits_->Inc();
        PacketHeader hdr;
        hdr.msg_type = MsgType::kDisconnect;
        hdr.session_id = sess.remote_session_id;
        hdr.req_id = si;  // lets the server ack even if it lost state
        sess.last_connect_tx = now;
        SendPacket(sess.remote, sess.remote_port, hdr);
        continue;
      }
      if (!sess.connected) continue;
      // In-flight requests.
      for (size_t k = 0; k < sess.slots.size(); ++k) {
        ClientSlot& slot = sess.slots[k];
        if (!slot.busy || slot.done == nullptr || slot.done->ready()) {
          continue;
        }
        if (now - slot.last_tx < slot.cur_rto_ns) continue;
        if (slot.retries >= cfg_.max_retries) {
          stats_.timeouts++;
          m_timeouts_->Inc();
          FinishSlot(sess, slot, Status::TimedOut("request timed out"));
          continue;
        }
        slot.retries++;
        slot.cur_rto_ns = NextRto(slot.cur_rto_ns);
        stats_.retransmits++;
        m_retransmits_->Inc();
        if (sim_->tracer().enabled()) {
          sim_->tracer().Instant(
              slot.trace, "rpc", "rpc.retransmit", now, node_,
              "{\"req_id\":" + std::to_string(slot.req_id) +
                  ",\"retry\":" + std::to_string(slot.retries) + "}");
        }
        slot.last_tx = now;
        sim_->Spawn(SendRequestPackets(static_cast<SessionId>(si),
                                       static_cast<int>(k),
                                       /*is_retransmit=*/true));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Server request path
// ---------------------------------------------------------------------------

void Rpc::SendCreditReturn(const ServerSession& sess, uint64_t req_id,
                           uint16_t pkt_idx) {
  PacketHeader hdr;
  hdr.msg_type = MsgType::kCreditReturn;
  hdr.session_id = sess.client_session_id;
  hdr.req_id = req_id;
  hdr.pkt_idx = pkt_idx;
  // Echo the request's context (callers store it on the slot before the
  // first credit return goes out).
  hdr.set_trace_context(sess.slots[req_id % cfg_.session_slots].trace);
  SendPacket(sess.remote, sess.remote_port, hdr);
}

void Rpc::OnRequestPacket(const net::Packet& pkt, const PacketHeader& hdr) {
  if (hdr.session_id >= server_sessions_.size() ||
      server_sessions_[hdr.session_id] == nullptr) {
    stats_.stale_packets++;
    return;
  }
  uint16_t server_session_id = hdr.session_id;
  ServerSession& sess = *server_sessions_[server_session_id];
  int slot_idx = static_cast<int>(hdr.req_id % cfg_.session_slots);
  ServerSlot& slot = sess.slots[slot_idx];

  if (hdr.req_id < slot.cur_req_id) {
    stats_.stale_packets++;
    return;
  }
  if (hdr.pkt_idx >= hdr.num_pkts) {
    stats_.stale_packets++;  // malformed fragment index
    return;
  }
  const bool is_final_pkt = (hdr.pkt_idx + 1 == hdr.num_pkts);
  if (hdr.req_id == slot.cur_req_id && slot.cur_req_id != 0) {
    // Duplicate traffic for the current request.
    if (!is_final_pkt) SendCreditReturn(sess, hdr.req_id, hdr.pkt_idx);
    if (slot.have_response && is_final_pkt) {
      stats_.duplicate_requests++;
      sim_->Spawn(SendResponse(server_session_id, slot_idx, hdr.req_id,
                               slot.req_type));
      return;
    }
    if (slot.in_progress && is_final_pkt &&
        (hdr.pkt_idx >= slot.req.total || slot.req.seen[hdr.pkt_idx])) {
      // Retransmitted request while the handler is still running: tell
      // the client we are alive so it keeps waiting instead of failing
      // after max_retries (long-running handlers are legitimate).
      stats_.duplicate_requests++;
      SendCreditReturn(sess, hdr.req_id, kProgressAckIdx);
      return;
    }
    if (slot.in_progress && hdr.pkt_idx < slot.req.total &&
        !slot.req.seen[hdr.pkt_idx]) {
      // A fragment we genuinely had not received (retransmit after loss).
      size_t off = static_cast<size_t>(hdr.pkt_idx) * max_data_per_packet();
      size_t frag_len = pkt.payload_size() - PacketHeader::kWireBytes;
      DMRPC_CHECK_LE(off + frag_len, slot.req.msg_size);
      AppendFragmentSlices(pkt, &slot.req.frags[hdr.pkt_idx]);
      slot.req.seen[hdr.pkt_idx] = true;
      slot.req.pkts++;
      if (slot.req.complete()) {
        // The handler frame is created under the request's wire context
        // (scoped here; captured by the frame's promise), so the handler
        // inherits the caller's causal identity.
        obs::TraceContextScope trace_scope(slot.trace);
        sim_->Spawn(RunHandler(server_session_id, slot_idx, hdr.req_id,
                               slot.req_type, slot.req.TakeMessage()));
      }
    }
    return;
  }

  // A new request on this slot.
  slot.cur_req_id = hdr.req_id;
  slot.in_progress = true;
  slot.have_response = false;
  slot.cached_response.Clear();
  slot.req_type = hdr.req_type;
  // Any fragment of a request carries the same context; keep the one
  // from the fragment that armed reassembly.
  slot.trace = hdr.trace_context();
  slot.req.Start(hdr);

  size_t off = static_cast<size_t>(hdr.pkt_idx) * max_data_per_packet();
  size_t frag_len = pkt.payload_size() - PacketHeader::kWireBytes;
  DMRPC_CHECK_LE(off + frag_len, slot.req.msg_size);
  AppendFragmentSlices(pkt, &slot.req.frags[hdr.pkt_idx]);
  slot.req.seen[hdr.pkt_idx] = true;
  slot.req.pkts++;
  if (!is_final_pkt) SendCreditReturn(sess, hdr.req_id, hdr.pkt_idx);
  if (slot.req.complete()) {
    obs::TraceContextScope trace_scope(slot.trace);
    sim_->Spawn(RunHandler(server_session_id, slot_idx, hdr.req_id,
                           slot.req_type, slot.req.TakeMessage()));
  }
}

sim::Task<> Rpc::RunHandler(uint16_t server_session_id, int slot_idx,
                            uint64_t req_id, ReqType req_type,
                            MsgBuffer req) {
  DMRPC_CHECK(handlers_[req_type]) << "no handler for req_type "
                                   << int{req_type};
  ServerSession* sess = server_sessions_[server_session_id].get();
  ReqContext ctx;
  ctx.peer = sess->remote;
  ctx.peer_port = sess->remote_port;
  ctx.req_type = req_type;
  stats_.requests_handled++;
  m_requests_handled_->Inc();

  const TimeNs handler_start = sim_->Now();
  // This frame was created under the request's wire context (see
  // OnRequestPacket), which the coroutine machinery re-installed here.
  const obs::TraceContext wire = obs::CurrentTraceContext();
  const size_t req_bytes = req.size();
  uint64_t handler_span = 0;
  if (sim_->tracer().enabled()) {
    handler_span = sim_->tracer().BeginSpan(
        wire, "rpc", "rpc.handler", handler_start, node_,
        "{\"req_type\":" + std::to_string(req_type) +
            ",\"req_id\":" + std::to_string(req_id) +
            ",\"bytes\":" + std::to_string(req_bytes) + "}");
  }
  // Handler inheritance: everything the handler does -- nested RPCs,
  // dmnet fetches, CXL page operations -- is causally parented on the
  // handler span (or the wire parent when recording is off).
  ctx.trace = obs::TraceContext{
      wire.trace_id, handler_span != 0 ? handler_span : wire.span_id,
      wire.flags};
  obs::SetCurrentTraceContext(ctx.trace);
  MsgBuffer resp = co_await handlers_[req_type](ctx, std::move(req));
  m_handler_ns_->Record(sim_->Now() - handler_start);
  if (handler_span != 0) {
    sim_->tracer().AttributeSpanArg(handler_span, "resp_bytes", resp.size());
  }
  sim_->tracer().EndSpan(handler_span, sim_->Now());

  // The session may have been torn down or the slot reused while the
  // handler ran.
  if (server_sessions_[server_session_id] == nullptr) co_return;
  ServerSlot& slot = server_sessions_[server_session_id]->slots[slot_idx];
  if (slot.cur_req_id != req_id) co_return;
  slot.cached_response = std::move(resp);
  slot.have_response = true;
  slot.in_progress = false;
  co_await SendResponse(server_session_id, slot_idx, req_id, req_type);
}

sim::Task<> Rpc::SendResponse(uint16_t server_session_id, int slot_idx,
                              uint64_t req_id, ReqType req_type) {
  const size_t chunk = max_data_per_packet();
  // One resumable cursor across all fragments: the response chain is
  // immutable while cur_req_id/have_response stay valid (re-checked after
  // every suspension), so fragmentation walks the slice list once total.
  MsgBuffer::SliceCursor cur;
  for (uint16_t i = 0;; ++i) {
    if (server_sessions_[server_session_id] == nullptr) co_return;
    ServerSession& sess = *server_sessions_[server_session_id];
    ServerSlot& slot = sess.slots[slot_idx];
    if (slot.cur_req_id != req_id || !slot.have_response) co_return;
    const size_t total = slot.cached_response.size();
    const uint16_t num_pkts =
        static_cast<uint16_t>(std::max<size_t>(1, (total + chunk - 1) / chunk));
    if (i >= num_pkts) co_return;

    co_await sim::Delay(cfg_.tx_sw_ns);
    // Re-validate after the suspension.
    if (server_sessions_[server_session_id] == nullptr) co_return;
    ServerSession& sess2 = *server_sessions_[server_session_id];
    ServerSlot& slot2 = sess2.slots[slot_idx];
    if (slot2.cur_req_id != req_id || !slot2.have_response) co_return;

    PacketHeader hdr;
    hdr.msg_type = MsgType::kResponse;
    hdr.req_type = req_type;
    hdr.session_id = sess2.client_session_id;
    hdr.pkt_idx = i;
    hdr.num_pkts = num_pkts;
    hdr.req_id = req_id;
    hdr.msg_size = static_cast<uint32_t>(total);
    hdr.set_trace_context(slot2.trace);
    size_t off = static_cast<size_t>(i) * chunk;
    size_t len = total == 0 ? 0 : std::min(chunk, total - off);
    SendPacket(sess2.remote, sess2.remote_port, hdr, slot2.cached_response,
               off, len, &cur);
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

sim::Task<> Rpc::Dispatch() {
  for (;;) {
    net::Packet pkt = co_await inbox_.Pop();
    stats_.rx_packets++;
    m_rx_packets_->Inc();
    if (meter_ != nullptr) {
      meter_->Charge(mem::MemKind::kLocalDram, pkt.payload_size());
    }
    co_await sim::Delay(cfg_.rx_sw_ns);
    HandlePacket(std::move(pkt));
  }
}

void Rpc::HandlePacket(net::Packet pkt) {
  PacketHeader hdr;
  if (!hdr.DecodeFrom(pkt.payload.data(), pkt.payload.size())) {
    LOG_WARN << "node " << node_ << ": malformed packet dropped";
    return;
  }
  switch (hdr.msg_type) {
    case MsgType::kConnect:
      OnConnect(pkt, hdr);
      break;
    case MsgType::kConnectAck:
      OnConnectAck(hdr);
      break;
    case MsgType::kRequest:
      OnRequestPacket(pkt, hdr);
      break;
    case MsgType::kResponse:
      OnResponsePacket(pkt, hdr);
      break;
    case MsgType::kCreditReturn:
      OnCreditReturn(hdr);
      break;
    case MsgType::kDisconnect:
      OnDisconnect(pkt, hdr);
      break;
    case MsgType::kDisconnectAck:
      OnDisconnectAck(hdr);
      break;
  }
}

}  // namespace dmrpc::rpc
