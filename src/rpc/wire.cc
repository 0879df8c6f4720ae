#include "rpc/wire.h"

#include "sim/simulation.h"

namespace dmrpc::rpc {

namespace {

template <typename T>
T Get(const uint8_t* data, size_t* pos) {
  T v;
  std::memcpy(&v, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return v;
}

template <typename T>
void PutRaw(uint8_t* out, size_t* pos, T v) {
  std::memcpy(out + *pos, &v, sizeof(T));
  *pos += sizeof(T);
}

/// Default capacity of slabs linked by the append path. One slab
/// comfortably holds a typical request; bulk appends pass their
/// remaining length as the hint and get kMaxSlabBytes slabs.
constexpr size_t kAppendSlabBytes = 4096;

/// The pool of the currently stepping simulation, or nullptr (buffers
/// built outside a simulation use plain heap slabs).
sim::BufferPool* CurrentPool() {
  sim::Simulation* s = sim::Simulation::Current();
  return s != nullptr ? &s->buffer_pool() : nullptr;
}

}  // namespace

void PacketHeader::EncodeTo(uint8_t* out) const {
  size_t pos = 0;
  PutRaw<uint16_t>(out, &pos, magic);
  PutRaw<uint8_t>(out, &pos, static_cast<uint8_t>(msg_type));
  PutRaw<uint8_t>(out, &pos, req_type);
  PutRaw<uint16_t>(out, &pos, session_id);
  PutRaw<uint16_t>(out, &pos, pkt_idx);
  PutRaw<uint16_t>(out, &pos, num_pkts);
  PutRaw<uint64_t>(out, &pos, req_id);
  PutRaw<uint32_t>(out, &pos, msg_size);
  PutRaw<uint64_t>(out, &pos, trace_id);
  PutRaw<uint64_t>(out, &pos, parent_span);
  PutRaw<uint8_t>(out, &pos, trace_flags);
}

bool PacketHeader::DecodeFrom(const uint8_t* data, size_t len) {
  if (len < kWireBytes) return false;
  size_t pos = 0;
  magic = Get<uint16_t>(data, &pos);
  if (magic != kMagic) return false;
  msg_type = static_cast<MsgType>(Get<uint8_t>(data, &pos));
  req_type = Get<uint8_t>(data, &pos);
  session_id = Get<uint16_t>(data, &pos);
  pkt_idx = Get<uint16_t>(data, &pos);
  num_pkts = Get<uint16_t>(data, &pos);
  req_id = Get<uint64_t>(data, &pos);
  msg_size = Get<uint32_t>(data, &pos);
  trace_id = Get<uint64_t>(data, &pos);
  parent_span = Get<uint64_t>(data, &pos);
  trace_flags = Get<uint8_t>(data, &pos);
  // Malformed trace context: flag bits with no defined meaning. Rejecting
  // here keeps every downstream consumer of trace_context() total.
  if ((trace_flags & ~obs::TraceContext::kValidFlags) != 0) return false;
  return true;
}

void AccountPayloadCopy(size_t n) {
  if (n == 0) return;
  sim::Simulation* s = sim::Simulation::Current();
  if (s == nullptr) return;
  s->metrics().GetCounter("rpc.bytes_copied")->Inc(static_cast<int64_t>(n));
  if (s->tracer().enabled()) {
    // Attribute the copy to the nearest enclosing local span: the
    // ambient context's span id, when it names a span open on this
    // tracer (remote parents are silently skipped).
    s->tracer().AttributeBytesCopied(obs::CurrentTraceContext().span_id, n);
  }
}

// ---------------------------------------------------------------------------
// MsgBuffer
// ---------------------------------------------------------------------------

MsgBuffer::MsgBuffer(size_t size) {
  size_t left = size;
  while (left > 0) {
    size_t chunk =
        left < sim::BufferPool::kMaxSlabBytes ? left
                                              : sim::BufferPool::kMaxSlabBytes;
    std::memset(AppendContiguous(chunk), 0, chunk);
    left -= chunk;
  }
}

sim::BufSlice* MsgBuffer::WritableTail(size_t len_hint) {
  if (!segs_.empty() && segs_.back().spare_capacity() > 0) {
    return &segs_.back();
  }
  size_t cap = len_hint < kAppendSlabBytes ? kAppendSlabBytes : len_hint;
  if (cap > sim::BufferPool::kMaxSlabBytes) {
    cap = sim::BufferPool::kMaxSlabBytes;
  }
  segs_.push_back(sim::BufSlice::NewWritable(cap, CurrentPool()));
  return &segs_.back();
}

void MsgBuffer::AppendBytes(const void* src, size_t len) {
  const uint8_t* in = static_cast<const uint8_t*>(src);
  while (len > 0) {
    sim::BufSlice* tail = WritableTail(len);
    size_t spare = tail->spare_capacity();
    size_t chunk = len < spare ? len : spare;
    std::memcpy(tail->ExtendTail(chunk), in, chunk);
    in += chunk;
    len -= chunk;
    size_ += chunk;
  }
}

uint8_t* MsgBuffer::AppendContiguous(size_t len) {
  DMRPC_CHECK_GT(len, 0u);
  // Deliberately not routed through WritableTail: the bytes must land in
  // one slice, so the current tail is closed and a slab of exactly the
  // requested capacity is linked (oversized requests fall through to
  // unpooled slabs inside the pool).
  segs_.push_back(sim::BufSlice::NewWritable(len, CurrentPool()));
  size_ += len;
  return segs_.back().ExtendTail(len);
}

void MsgBuffer::AppendRangeOf(const MsgBuffer& src, size_t pos, size_t len) {
  DMRPC_CHECK(&src != this) << "AppendRangeOf from self";
  DMRPC_CHECK_LE(pos + len, src.size_);
  SliceCursor cur;
  src.CollectSlices(&cur, pos, len, &segs_);
  size_ += len;
}

void MsgBuffer::ReadRaw(void* dst, size_t len) {
  uint8_t* out = static_cast<uint8_t*>(dst);
  while (len > 0) {
    const sim::BufSlice& seg = NormalizedSeg();
    size_t avail = seg.size() - cur_off_;
    size_t chunk = len < avail ? len : avail;
    std::memcpy(out, seg.data() + cur_off_, chunk);
    out += chunk;
    cur_off_ += chunk;
    read_pos_ += chunk;
    len -= chunk;
  }
}

MsgBuffer MsgBuffer::ReadChain(size_t len) {
  DMRPC_CHECK_LE(read_pos_ + len, size_) << "MsgBuffer underflow";
  MsgBuffer out;
  while (len > 0) {
    const sim::BufSlice& seg = NormalizedSeg();
    size_t avail = seg.size() - cur_off_;
    size_t chunk = len < avail ? len : avail;
    out.AppendSlice(seg.Sub(cur_off_, chunk));
    cur_off_ += chunk;
    read_pos_ += chunk;
    len -= chunk;
  }
  return out;
}

void MsgBuffer::SeekTo(size_t pos) {
  DMRPC_CHECK_LE(pos, size_);
  read_pos_ = pos;
  cur_seg_ = 0;
  cur_off_ = pos;
  while (cur_seg_ < segs_.size() && cur_off_ >= segs_[cur_seg_].size()) {
    cur_off_ -= segs_[cur_seg_].size();
    ++cur_seg_;
  }
}

void MsgBuffer::OverwriteAt(size_t pos, const void* src, size_t len) {
  DMRPC_CHECK_LE(pos + len, size_);
  const uint8_t* in = static_cast<const uint8_t*>(src);
  size_t seg_start = 0;
  for (sim::BufSlice& seg : segs_) {
    if (len == 0) break;
    size_t seg_end = seg_start + seg.size();
    if (pos < seg_end) {
      DMRPC_CHECK_EQ(seg.ref_count(), 1u) << "OverwriteAt on a shared slab";
      size_t off = pos - seg_start;
      size_t avail = seg.size() - off;
      size_t chunk = len < avail ? len : avail;
      std::memcpy(seg.data() + off, in, chunk);
      in += chunk;
      pos += chunk;
      len -= chunk;
    }
    seg_start = seg_end;
  }
}

std::vector<uint8_t> MsgBuffer::CopyBytes() const {
  std::vector<uint8_t> out;
  out.reserve(size_);
  for (const sim::BufSlice& seg : segs_) {
    out.insert(out.end(), seg.data(), seg.data() + seg.size());
  }
  AccountPayloadCopy(size_);
  return out;
}

void MsgBuffer::CollectSlices(SliceCursor* cur, size_t pos, size_t len,
                              std::vector<sim::BufSlice>* out) const {
  DMRPC_CHECK_LE(pos + len, size_);
  if (pos < cur->seg_start) *cur = SliceCursor{};
  while (cur->seg < segs_.size() &&
         cur->seg_start + segs_[cur->seg].size() <= pos) {
    cur->seg_start += segs_[cur->seg].size();
    ++cur->seg;
  }
  while (len > 0) {
    const sim::BufSlice& seg = segs_[cur->seg];
    size_t off = pos - cur->seg_start;
    size_t avail = seg.size() - off;
    size_t chunk = len < avail ? len : avail;
    out->push_back(seg.Sub(off, chunk));
    pos += chunk;
    len -= chunk;
    if (off + chunk == seg.size() && cur->seg + 1 < segs_.size()) {
      cur->seg_start += seg.size();
      ++cur->seg;
    }
  }
}

}  // namespace dmrpc::rpc
