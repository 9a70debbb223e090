// Madeleine-style pack/unpack buffers (paper ref [2]).
//
// PM2's migration and RPC layers describe outgoing data as a sequence of
// *pack* operations; the buffer gathers them into a scatter-gather
// BufferChain — small fields are staged (copied once) into chunk storage,
// bulk regions like slot payloads are *borrowed* as {ptr,len} segments.
// The chain travels as-is down to the fabric, which gathers it straight to
// the wire (writev); nothing is flattened unless a legacy consumer asks.
// This is what kept Madeleine's migration path cheap: headers are staged,
// slot contents go from their iso-addresses to the network with no
// intermediate copy.
//
// Two packing modes, mirroring madeleine's send modes:
//  * kCopy   ("send_safer")  — bytes are copied immediately; the source may
//    change or vanish afterwards.
//  * kBorrow ("send_cheaper") — only the (pointer,len) is recorded; the
//    source must stay intact until the chain is consumed (sent through a
//    fabric, flattened, or sealed).  Used for slot images.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/serialize.hpp"

namespace pm2::mad {

enum class PackMode { kCopy, kBorrow };

/// Staged-chunk cache.  Every kernel thread keeps its own cache of chunk
/// storage, at most kChunkCacheBytes of capacity; it holds chunks of
/// kMinChunk to kMaxPooledChunk bytes, serves a chunk request with the
/// smallest cached chunk that fits (best fit), and makes room for a
/// recycled chunk by evicting its oldest ones.  A typed RPC message is one
/// exact-size chunk from the packer to whoever consumes the payload, and
/// the consumer hands the storage back here through recycle(), so the
/// steady-state RPC path allocates nothing.
inline constexpr size_t kMinChunk = 1024;
/// The largest RPC payload in use (a 16 KiB byte vector) plus its typed
/// framing: service hash, request id, length prefix.
inline constexpr size_t kMaxPooledChunk = 16 * 1024 + 64;
/// Ten 16 KiB payloads.  Against this bound on rpc_open (4 vCPUs), 128 KiB
/// read about 3 % less throughput, and 192 KiB about 3 % more session
/// memory for at most 2 % more throughput.
inline constexpr size_t kChunkCacheBytes = 160 * 1024;

/// Hand a consumed payload's storage to the calling kernel thread's chunk
/// cache (freed instead when its capacity is out of the pooled range or
/// the cache is full).  `chunk` is left empty.
void recycle(std::vector<uint8_t>&& chunk);
/// Capacity bytes held by the calling kernel thread's cache.
size_t chunk_cache_bytes();

/// Chunk cache counters (process-wide, summed over the per-kernel-thread
/// caches).  A miss is a chunk request of pooled size the cache could not
/// serve.
uint64_t chunk_pool_hits();
uint64_t chunk_pool_misses();

/// Ordered scatter-gather list of {ptr,len} byte segments.  Each segment is
/// either *owned* (bytes live in internal chunk storage, stable addresses)
/// or *borrowed* (points into caller memory).  Move-only; the segment view
/// is iovec-shaped so transports can gather without flattening.
class BufferChain {
 public:
  struct Segment {
    const uint8_t* data;
    size_t len;
  };

  BufferChain() = default;
  explicit BufferChain(size_t reserve_hint) : reserve_hint_(reserve_hint) {}
  ~BufferChain() { release_chunks(); }
  BufferChain(BufferChain&&) noexcept = default;
  BufferChain& operator=(BufferChain&&) noexcept = default;
  BufferChain(const BufferChain&) = delete;
  BufferChain& operator=(const BufferChain&) = delete;

  /// Copy `len` bytes into owned storage now.
  void append_copy(const void* data, size_t len);
  /// Record {data,len}; the memory must outlive the chain's consumption.
  void append_borrow(const void* data, size_t len);
  /// Splice another chain onto the end (chunks change hands; no copies).
  void append_chain(BufferChain&& other);

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  const std::vector<Segment>& segments() const { return segments_; }

  /// Bytes that were memcpy'd into owned storage (append_copy / seal).
  size_t copied_bytes() const { return copied_; }
  /// Bytes still referenced in caller memory.
  size_t borrowed_bytes() const { return borrowed_; }

  /// Gather all segments into `dst` (must hold size() bytes).
  void gather(uint8_t* dst) const;
  /// Gather into a fresh flat vector; the chain is unchanged.
  std::vector<uint8_t> flatten() const;
  /// Destructive flatten.  A chain whose bytes already sit contiguously in
  /// one owned chunk is *moved* out with no copy; anything else gathers.
  /// Leaves the chain empty.
  std::vector<uint8_t> take_flat();
  /// Detach from caller memory: if any segment is borrowed, gather the
  /// whole chain into a single owned chunk (so a later take_flat() is a
  /// move).  Returns the number of bytes copied (0 if already owned).
  size_t seal();

  void clear();

 private:
  /// recycle() every chunk.
  void release_chunks();
  bool single_owned_chunk() const {
    return chunks_.size() == 1 && borrowed_ == 0 &&
           chunks_[0].size() == total_;
  }

  // Chunks are reserved once and only ever filled within capacity, so
  // pointers into them stay stable (segments reference them directly).
  std::vector<std::vector<uint8_t>> chunks_;
  std::vector<Segment> segments_;
  size_t total_ = 0;
  size_t copied_ = 0;
  size_t borrowed_ = 0;
  size_t reserve_hint_ = 0;
};

class PackBuffer {
 public:
  PackBuffer() = default;
  /// A buffer whose packs add up to at most `reserve_hint` bytes stages
  /// them all in one chunk.
  explicit PackBuffer(size_t reserve_hint) : chain_(reserve_hint) {}

  /// Fixed-size trivially copyable value (always copied).
  template <typename T>
  void pack(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pack_bytes(&v, sizeof(T), PackMode::kCopy);
  }

  void pack_string(const std::string& s) {
    pack<uint32_t>(static_cast<uint32_t>(s.size()));
    pack_bytes(s.data(), s.size(), PackMode::kCopy);
  }

  /// Length-prefixed byte region.
  void pack_region(const void* data, size_t len,
                   PackMode mode = PackMode::kCopy) {
    pack<uint64_t>(len);
    pack_bytes(data, len, mode);
  }

  /// Raw bytes, no length prefix (caller controls framing).
  void pack_bytes(const void* data, size_t len, PackMode mode);

  /// Total payload size so far.
  size_t size() const { return chain_.size(); }

  /// Move the staged chain out (borrowed regions stay borrowed — zero
  /// copies).  The buffer is left empty, ready for reuse.
  BufferChain take_chain();

  /// Legacy: flatten into a single contiguous payload.  Borrowed regions
  /// are copied now; the buffer is left empty.
  std::vector<uint8_t> finalize();

 private:
  BufferChain chain_;
};

/// Mirror of PackBuffer over a received payload.
class UnpackBuffer {
 public:
  UnpackBuffer(const void* data, size_t len) : reader_(data, len) {}
  explicit UnpackBuffer(const std::vector<uint8_t>& v)
      : reader_(v.data(), v.size()) {}

  template <typename T>
  T unpack() {
    return reader_.get<T>();
  }

  std::string unpack_string() { return reader_.get_string(); }

  /// Length-prefixed region: copies into `out` (must hold the prefix len).
  size_t unpack_region(void* out, size_t capacity);

  /// Length-prefixed region: zero-copy view into the underlying payload.
  const uint8_t* unpack_region_view(size_t* len);

  void unpack_bytes(void* out, size_t len) { reader_.get_bytes(out, len); }

  /// Zero-copy view of the next `len` bytes (advances the cursor).  The
  /// pointer is valid as long as the underlying payload lives.
  const uint8_t* view_bytes(size_t len) { return reader_.view_bytes(len); }

  /// Advance past `len` bytes without copying them.
  void skip(size_t len) { reader_.view_bytes(len); }

  size_t remaining() const { return reader_.remaining(); }
  bool exhausted() const { return reader_.exhausted(); }

 private:
  pm2::ByteReader reader_;
};

}  // namespace pm2::mad
