#ifndef DMRPC_RPC_WIRE_H_
#define DMRPC_RPC_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/trace_context.h"
#include "sim/buffer_pool.h"

namespace dmrpc::rpc {

/// Packet roles within the RPC protocol (eRPC-style).
enum class MsgType : uint8_t {
  kConnect = 1,      // session handshake request
  kConnectAck = 2,   // session handshake reply
  kRequest = 3,      // request message fragment
  kResponse = 4,     // response message fragment
  kCreditReturn = 5, // explicit credit return for a non-final request pkt
  kDisconnect = 6,
  kDisconnectAck = 7,
};

/// Fixed header prepended to every RPC packet on the wire.
///
/// The trace-context triple (trace_id / parent_span / trace_flags) is
/// part of the fixed header for every message type -- a conditional
/// header size would make packet sizes depend on whether a request is
/// traced, perturbing the very runs tracing is meant to observe. For
/// kRequest it carries the caller's causal identity into the callee's
/// handler; responses and credit returns echo the request's context so
/// any packet on the wire can be attributed to its originating request.
struct PacketHeader {
  static constexpr uint16_t kMagic = 0xDA7A;
  static constexpr size_t kWireBytes = 39;

  uint16_t magic = kMagic;
  MsgType msg_type = MsgType::kRequest;
  uint8_t req_type = 0;      // user handler id
  uint16_t session_id = 0;   // receiver-side session id (sender-side in
                             // kConnect, which establishes the mapping)
  uint16_t pkt_idx = 0;      // fragment index within the message
  uint16_t num_pkts = 1;     // total fragments in the message
  uint64_t req_id = 0;       // per-session monotonically increasing
  uint32_t msg_size = 0;     // total message payload bytes
  uint64_t trace_id = 0;     // causal trace of the originating request
                             // (0 = untraced)
  uint64_t parent_span = 0;  // sender-side span that caused this message
  uint8_t trace_flags = 0;   // obs::TraceContext flag bits (kSampled)

  /// The trace context this header carries (for handler inheritance).
  obs::TraceContext trace_context() const {
    return obs::TraceContext{trace_id, parent_span, trace_flags};
  }
  void set_trace_context(const obs::TraceContext& ctx) {
    trace_id = ctx.trace_id;
    parent_span = ctx.span_id;
    trace_flags = ctx.flags;
  }

  /// Writes exactly kWireBytes into `out` (hot path: the RPC layer
  /// encodes straight into a pooled packet buffer, no vector involved).
  void EncodeTo(uint8_t* out) const;
  /// Returns false if `data` is too short, the magic mismatches, or the
  /// trace-context bytes are malformed (undefined flag bits set).
  bool DecodeFrom(const uint8_t* data, size_t len);
};

/// Accounts `n` payload bytes memcpy'd on the message path (chain
/// materialization, coalescing fallbacks) to the `rpc.bytes_copied`
/// counter of the current simulation, if any (every rpc::Rpc registers
/// it at construction). The initial producer write into a chain and the
/// consumer handoff out of one (ReadBytes into user memory / page frames
/// -- the NIC-DMA boundary) are deliberately *not* accounted: those are
/// the two copies a real zero-copy stack also performs. A steady-state zero-copy RPC
/// path therefore keeps this counter at 0.
void AccountPayloadCopy(size_t n);

/// An RPC message payload: a scatter-gather chain of refcounted
/// BufferPool slices with append/read helpers for fixed-width
/// little-endian primitives. This is what request arguments and response
/// values are serialized into, so every pass-by-value byte is physically
/// present in some slab -- but never contiguously by requirement.
///
/// Appends write into the open tail slab and link a fresh slab when it
/// fills (no realloc+memcpy growth); reads advance a cursor that walks
/// across slice boundaries without coalescing. Whole ranges of another
/// chain can be appended by reference (AppendRangeOf / AppendSlice), and
/// a prefix of the unread remainder can be split off by reference
/// (ReadChain) -- both are O(slices), moving no payload bytes. This is
/// what makes RPC fragmentation and reassembly copy-free: packets carry
/// sub-slices of the message chain, and the reassembled message *is* the
/// received slices, chained.
///
/// Copying a MsgBuffer shares its slices (cheap). Shared slabs are
/// immutable through this API: a shared tail reports no spare capacity,
/// so appends to either copy land in fresh slabs, and OverwriteAt checks
/// exclusive ownership.
class MsgBuffer {
 public:
  MsgBuffer() = default;
  /// A chain holding a copy of `bytes` (the producer write).
  explicit MsgBuffer(const std::vector<uint8_t>& bytes) {
    AppendBytes(bytes.data(), bytes.size());
  }
  /// A zero-filled buffer of the given size.
  explicit MsgBuffer(size_t size);

  MsgBuffer(const MsgBuffer&) = default;
  MsgBuffer& operator=(const MsgBuffer&) = default;
  MsgBuffer(MsgBuffer&&) = default;
  MsgBuffer& operator=(MsgBuffer&&) = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    segs_.clear();
    size_ = 0;
    read_pos_ = 0;
    cur_seg_ = 0;
    cur_off_ = 0;
  }

  // -- Append API (serialization) --

  template <typename T>
  void Append(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!segs_.empty() && segs_.back().spare_capacity() >= sizeof(T)) {
      std::memcpy(segs_.back().ExtendTail(sizeof(T)), &value, sizeof(T));
      size_ += sizeof(T);
    } else {
      AppendBytes(&value, sizeof(T));
    }
  }

  void AppendBytes(const void* src, size_t len);

  void AppendString(const std::string& s) {
    Append<uint32_t>(static_cast<uint32_t>(s.size()));
    AppendBytes(s.data(), s.size());
  }

  /// Appends `len` uninitialized bytes guaranteed to live in a single
  /// slice (a fresh slab) and returns the write pointer. This is the
  /// bulk producer-write primitive: a page read from a frame lands in
  /// exactly one pooled slab, which then travels to the consumer by
  /// reference.
  uint8_t* AppendContiguous(size_t len);

  /// Appends a slice by reference (no bytes move).
  void AppendSlice(sim::BufSlice slice) {
    if (slice.empty()) return;
    size_ += slice.size();
    segs_.push_back(std::move(slice));
  }

  /// Appends bytes [pos, pos+len) of `src` by slice reference (no bytes
  /// move; the chains share slabs afterwards). `src` must be a different
  /// buffer.
  void AppendRangeOf(const MsgBuffer& src, size_t pos, size_t len);

  // -- Read API (deserialization); reads advance a cursor --

  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    DMRPC_CHECK_LE(read_pos_ + sizeof(T), size_) << "MsgBuffer underflow";
    T value;
    const sim::BufSlice& seg = NormalizedSeg();
    if (seg.size() - cur_off_ >= sizeof(T)) {
      std::memcpy(&value, seg.data() + cur_off_, sizeof(T));
      cur_off_ += sizeof(T);
      read_pos_ += sizeof(T);
    } else {
      ReadRaw(&value, sizeof(T));
    }
    return value;
  }

  void ReadBytes(void* dst, size_t len) {
    DMRPC_CHECK_LE(read_pos_ + len, size_) << "MsgBuffer underflow";
    ReadRaw(dst, len);
  }

  std::string ReadString() {
    uint32_t len = Read<uint32_t>();
    std::string s(len, '\0');
    ReadBytes(s.data(), len);
    return s;
  }

  /// Splits off the next `len` unread bytes as a chain sharing this
  /// buffer's slices (no bytes move) and advances the cursor past them.
  MsgBuffer ReadChain(size_t len);

  /// Bytes left to read.
  size_t remaining() const { return size_ - read_pos_; }
  size_t read_pos() const { return read_pos_; }
  void SeekTo(size_t pos);

  // -- Whole-chain helpers --

  /// Patches previously appended bytes in place. Every touched slab must
  /// be exclusively owned by this chain (checked): patching shared bytes
  /// would be visible through other chains.
  void OverwriteAt(size_t pos, const void* src, size_t len);

  /// Materializes the chain into one contiguous vector. This is the
  /// copy the scatter-gather path exists to avoid, so it is accounted
  /// to `rpc.bytes_copied` (see AccountPayloadCopy).
  std::vector<uint8_t> CopyBytes() const;

  /// The slice chain (RPC fragmentation walks this).
  const std::vector<sim::BufSlice>& segments() const { return segs_; }

  /// Resumable position for CollectSlices: callers walking a message in
  /// ascending byte order (the fragmentation loops) keep one of these so
  /// slicing N fragments is O(slices), not O(N * slices).
  struct SliceCursor {
    size_t seg = 0;        // index into segments()
    size_t seg_start = 0;  // absolute byte offset where that segment begins
  };

  /// Appends slices covering bytes [pos, pos+len) to `out` (shared
  /// references, no bytes move). Resumes from `cur`, rewinding it first
  /// if `pos` moved backwards (retransmits restart at 0).
  void CollectSlices(SliceCursor* cur, size_t pos, size_t len,
                     std::vector<sim::BufSlice>* out) const;

 private:
  /// The segment under the read cursor, with cur_off_ < its size.
  /// Requires unread bytes to exist.
  const sim::BufSlice& NormalizedSeg() {
    while (cur_off_ >= segs_[cur_seg_].size()) {
      cur_off_ -= segs_[cur_seg_].size();
      ++cur_seg_;
    }
    return segs_[cur_seg_];
  }

  void ReadRaw(void* dst, size_t len);

  /// The open tail slice, linking a fresh slab (sized for `len_hint`
  /// more bytes) if the current tail is full, shared, or absent.
  sim::BufSlice* WritableTail(size_t len_hint);

  std::vector<sim::BufSlice> segs_;
  size_t size_ = 0;
  size_t read_pos_ = 0;
  // Read-cursor position: read_pos_ falls inside segs_[cur_seg_] at
  // in-segment offset cur_off_ (lazily normalized; see NormalizedSeg).
  size_t cur_seg_ = 0;
  size_t cur_off_ = 0;
};

}  // namespace dmrpc::rpc

#endif  // DMRPC_RPC_WIRE_H_
