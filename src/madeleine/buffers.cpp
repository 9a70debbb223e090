#include "madeleine/buffers.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/check.hpp"

namespace pm2::mad {

namespace {

// Per-kernel-thread chunk cache.  Under the SMP scheduler that is a
// per-worker freelist: a message's chunk is taken on the packer's worker
// and recycled on the consumer's, so chunks flow between the caches of the
// nodes' workers, each refilled by the payloads its worker consumes.  Best
// fit keeps a large chunk for the large message that needs it.  A full
// cache evicts its oldest chunks, so what it holds follows the current mix
// of message sizes; dropping the incoming chunk instead froze the mix, and
// a server worker full of small chunks then missed on every 16 KiB reply.
struct CachedChunk {
  std::vector<uint8_t> chunk;
  uint64_t stamp;  // recycle order
};
struct ChunkCache {
  std::vector<CachedChunk> chunks;
  size_t bytes = 0;  // sum of the cached chunks' capacities
  uint64_t clock = 0;
};
thread_local ChunkCache t_chunk_cache;

std::atomic<uint64_t> g_chunk_hits{0};
std::atomic<uint64_t> g_chunk_misses{0};

std::vector<uint8_t> remove_at(ChunkCache& cache, size_t i) {
  std::vector<uint8_t> out = std::move(cache.chunks[i].chunk);
  if (i + 1 != cache.chunks.size())
    cache.chunks[i] = std::move(cache.chunks.back());
  cache.chunks.pop_back();
  cache.bytes -= out.capacity();
  return out;
}

/// Storage of at least `cap` bytes: the smallest cached chunk that fits,
/// else a fresh reservation.
std::vector<uint8_t> take_chunk(size_t cap) {
  if (cap <= kMaxPooledChunk) {
    ChunkCache& cache = t_chunk_cache;
    size_t best = cache.chunks.size();
    size_t best_cap = SIZE_MAX;
    for (size_t i = 0; i < cache.chunks.size(); ++i) {
      size_t c = cache.chunks[i].chunk.capacity();
      if (c >= cap && c < best_cap) {
        best = i;
        best_cap = c;
      }
    }
    if (best != cache.chunks.size()) {
      g_chunk_hits.fetch_add(1, std::memory_order_relaxed);
      return remove_at(cache, best);
    }
    g_chunk_misses.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<uint8_t> out;
  out.reserve(cap);
  return out;
}

}  // namespace

void recycle(std::vector<uint8_t>&& chunk) {
  std::vector<uint8_t> c = std::move(chunk);
  size_t cap = c.capacity();
  if (cap < kMinChunk || cap > kMaxPooledChunk) return;  // freed by the dtor
  ChunkCache& cache = t_chunk_cache;
  static_assert(kMaxPooledChunk <= kChunkCacheBytes);  // eviction ends
  while (cache.bytes + cap > kChunkCacheBytes) {
    auto oldest = std::min_element(
        cache.chunks.begin(), cache.chunks.end(),
        [](const CachedChunk& a, const CachedChunk& b) {
          return a.stamp < b.stamp;
        });
    remove_at(cache, static_cast<size_t>(oldest - cache.chunks.begin()));
  }
  c.clear();
  cache.chunks.push_back(CachedChunk{std::move(c), cache.clock++});
  cache.bytes += cap;
}

size_t chunk_cache_bytes() { return t_chunk_cache.bytes; }

uint64_t chunk_pool_hits() {
  return g_chunk_hits.load(std::memory_order_relaxed);
}
uint64_t chunk_pool_misses() {
  return g_chunk_misses.load(std::memory_order_relaxed);
}

void BufferChain::release_chunks() {
  for (std::vector<uint8_t>& chunk : chunks_) recycle(std::move(chunk));
  chunks_.clear();
}

void BufferChain::append_copy(const void* data, size_t len) {
  if (len == 0) return;
  if (chunks_.empty() ||
      chunks_.back().capacity() - chunks_.back().size() < len)
    chunks_.push_back(take_chunk(std::max({kMinChunk, reserve_hint_, len})));
  std::vector<uint8_t>& chunk = chunks_.back();
  uint8_t* dst = chunk.data() + chunk.size();
  // Within capacity: no reallocation (segment pointers stay stable), and
  // the bytes are copied in without being zero-filled first.
  const auto* src = static_cast<const uint8_t*>(data);
  chunk.insert(chunk.end(), src, src + len);
  // Adjacent copies into the same chunk merge into one segment.
  if (!segments_.empty() &&
      segments_.back().data + segments_.back().len == dst) {
    segments_.back().len += len;
  } else {
    segments_.push_back(Segment{dst, len});
  }
  total_ += len;
  copied_ += len;
}

void BufferChain::append_borrow(const void* data, size_t len) {
  if (len == 0) return;
  const auto* p = static_cast<const uint8_t*>(data);
  if (!segments_.empty() && segments_.back().data + segments_.back().len == p) {
    segments_.back().len += len;
  } else {
    segments_.push_back(Segment{p, len});
  }
  total_ += len;
  borrowed_ += len;
}

void BufferChain::append_chain(BufferChain&& other) {
  for (std::vector<uint8_t>& chunk : other.chunks_)
    chunks_.push_back(std::move(chunk));  // data pointers survive the move
  segments_.insert(segments_.end(), other.segments_.begin(),
                   other.segments_.end());
  total_ += other.total_;
  copied_ += other.copied_;
  borrowed_ += other.borrowed_;
  other.clear();
}

void BufferChain::gather(uint8_t* dst) const {
  for (const Segment& seg : segments_) {
    std::memcpy(dst, seg.data, seg.len);
    dst += seg.len;
  }
}

std::vector<uint8_t> BufferChain::flatten() const {
  std::vector<uint8_t> out(total_);
  gather(out.data());
  return out;
}

std::vector<uint8_t> BufferChain::take_flat() {
  std::vector<uint8_t> out;
  if (single_owned_chunk()) {
    out = std::move(chunks_[0]);
  } else {
    out.resize(total_);
    gather(out.data());
  }
  clear();
  return out;
}

size_t BufferChain::seal() {
  if (borrowed_ == 0) return 0;
  // Gathering everything into one fresh chunk (rather than patching only
  // the borrowed segments) costs a few extra header bytes but leaves the
  // chain in single-owned-chunk form, so the receiver's take_flat() is a
  // move instead of another copy.
  std::vector<uint8_t> flat(total_);
  gather(flat.data());
  size_t copied = total_;
  size_t n = flat.size();
  clear();
  chunks_.push_back(std::move(flat));
  segments_.push_back(Segment{chunks_[0].data(), n});
  total_ = n;
  copied_ = n;
  return copied;
}

void BufferChain::clear() {
  release_chunks();
  segments_.clear();
  total_ = copied_ = borrowed_ = 0;
}

void PackBuffer::pack_bytes(const void* data, size_t len, PackMode mode) {
  if (mode == PackMode::kBorrow) {
    chain_.append_borrow(data, len);
  } else {
    chain_.append_copy(data, len);
  }
}

BufferChain PackBuffer::take_chain() {
  return std::exchange(chain_, BufferChain());
}

std::vector<uint8_t> PackBuffer::finalize() {
  std::vector<uint8_t> out = chain_.take_flat();
  PM2_CHECK(chain_.empty());
  return out;
}

size_t UnpackBuffer::unpack_region(void* out, size_t capacity) {
  auto len = reader_.get<uint64_t>();
  PM2_CHECK(len <= capacity) << "unpack_region: destination too small ("
                             << capacity << " < " << len << ")";
  reader_.get_bytes(out, len);
  return len;
}

const uint8_t* UnpackBuffer::unpack_region_view(size_t* len) {
  auto n = reader_.get<uint64_t>();
  *len = n;
  return reader_.view_bytes(n);
}

}  // namespace pm2::mad
