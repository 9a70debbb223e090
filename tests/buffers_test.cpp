// Madeleine pack/unpack buffer, BufferChain and chunk-cache tests.
#include "madeleine/buffers.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>

#include "madeleine/typed.hpp"

namespace pm2::mad {
namespace {

TEST(PackBuffer, ScalarsRoundTrip) {
  PackBuffer pack;
  pack.pack<uint32_t>(7);
  pack.pack<uint64_t>(0xAABBCCDDEEFF0011ull);
  pack.pack_string("madeleine");
  auto wire = pack.finalize();

  UnpackBuffer unpack(wire);
  EXPECT_EQ(unpack.unpack<uint32_t>(), 7u);
  EXPECT_EQ(unpack.unpack<uint64_t>(), 0xAABBCCDDEEFF0011ull);
  EXPECT_EQ(unpack.unpack_string(), "madeleine");
  EXPECT_TRUE(unpack.exhausted());
}

TEST(PackBuffer, CopyModeDetachesFromSource) {
  char src[16] = "original";
  PackBuffer pack;
  pack.pack_region(src, sizeof(src), PackMode::kCopy);
  std::memcpy(src, "clobbered", 10);  // mutate after packing
  auto wire = pack.finalize();

  UnpackBuffer unpack(wire);
  char out[16];
  EXPECT_EQ(unpack.unpack_region(out, sizeof(out)), sizeof(src));
  EXPECT_STREQ(out, "original");
}

TEST(PackBuffer, BorrowModeReadsAtFinalize) {
  char src[16] = "original";
  PackBuffer pack;
  pack.pack_region(src, sizeof(src), PackMode::kBorrow);
  std::memcpy(src, "mutated!", 9);  // borrowed: finalize sees the new bytes
  auto wire = pack.finalize();

  UnpackBuffer unpack(wire);
  char out[16];
  unpack.unpack_region(out, sizeof(out));
  EXPECT_STREQ(out, "mutated!");
}

TEST(PackBuffer, MixedSegmentsPreserveOrder) {
  std::vector<uint8_t> big(1000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  PackBuffer pack;
  pack.pack<uint32_t>(1);
  pack.pack_bytes(big.data(), big.size(), PackMode::kBorrow);
  pack.pack<uint32_t>(2);
  EXPECT_EQ(pack.size(), 4 + 1000 + 4);
  auto wire = pack.finalize();

  UnpackBuffer unpack(wire);
  EXPECT_EQ(unpack.unpack<uint32_t>(), 1u);
  std::vector<uint8_t> out(1000);
  unpack.unpack_bytes(out.data(), out.size());
  EXPECT_EQ(out, big);
  EXPECT_EQ(unpack.unpack<uint32_t>(), 2u);
}

TEST(PackBuffer, FinalizeResets) {
  PackBuffer pack;
  pack.pack<uint32_t>(1);
  pack.finalize();
  EXPECT_EQ(pack.size(), 0u);
  pack.pack<uint32_t>(2);
  auto wire = pack.finalize();
  UnpackBuffer unpack(wire);
  EXPECT_EQ(unpack.unpack<uint32_t>(), 2u);
}

TEST(UnpackBuffer, RegionView) {
  PackBuffer pack;
  pack.pack_region("zerocopy", 8);
  auto wire = pack.finalize();
  UnpackBuffer unpack(wire);
  size_t len = 0;
  const uint8_t* p = unpack.unpack_region_view(&len);
  EXPECT_EQ(len, 8u);
  EXPECT_EQ(std::memcmp(p, "zerocopy", 8), 0);
}

TEST(UnpackBufferDeath, RegionOverflowAborts) {
  PackBuffer pack;
  pack.pack_region("0123456789", 10);
  auto wire = pack.finalize();
  UnpackBuffer unpack(wire);
  char small[4];
  EXPECT_DEATH(unpack.unpack_region(small, sizeof(small)), "too small");
}

TEST(PackBuffer, EmptyRegion) {
  PackBuffer pack;
  pack.pack_region(nullptr, 0);
  auto wire = pack.finalize();
  UnpackBuffer unpack(wire);
  size_t len = 7;
  unpack.unpack_region_view(&len);
  EXPECT_EQ(len, 0u);
  EXPECT_TRUE(unpack.exhausted());
}

// --- BufferChain -------------------------------------------------------------

TEST(BufferChain, SegmentsGatherInOrder) {
  BufferChain chain;
  char ext[8] = "borrow!";
  chain.append_copy("abc", 3);
  chain.append_borrow(ext, 7);
  chain.append_copy("xyz", 3);
  EXPECT_EQ(chain.size(), 13u);
  EXPECT_EQ(chain.copied_bytes(), 6u);
  EXPECT_EQ(chain.borrowed_bytes(), 7u);

  auto flat = chain.flatten();
  EXPECT_EQ(std::string(flat.begin(), flat.end()), "abcborrow!xyz");
}

TEST(BufferChain, AdjacentCopiesMergeIntoOneSegment) {
  BufferChain chain;
  chain.append_copy("ab", 2);
  chain.append_copy("cd", 2);
  EXPECT_EQ(chain.segments().size(), 1u);
  EXPECT_EQ(chain.segments()[0].len, 4u);
}

TEST(BufferChain, SealDetachesBorrowedMemory) {
  char src[16] = "volatile bytes!";
  BufferChain chain;
  chain.append_copy("hdr:", 4);
  chain.append_borrow(src, 15);
  size_t copied = chain.seal();
  EXPECT_EQ(copied, chain.size());  // seal gathers into one owned chunk
  EXPECT_EQ(chain.borrowed_bytes(), 0u);
  std::memset(src, 'X', sizeof(src));  // sealed: source may now die
  auto flat = chain.take_flat();
  EXPECT_EQ(std::string(flat.begin(), flat.end()), "hdr:volatile bytes!");
  EXPECT_EQ(chain.seal(), 0u);  // owned-only chains seal for free
}

TEST(BufferChain, TakeFlatMovesSingleOwnedChunk) {
  BufferChain chain;
  std::vector<uint8_t> big(100000, 0x5A);
  chain.append_copy(big.data(), big.size());
  const uint8_t* before = chain.segments()[0].data;
  auto flat = chain.take_flat();
  // Single owned chunk: the storage moved, no gather copy happened.
  EXPECT_EQ(flat.data(), before);
  EXPECT_EQ(flat.size(), 100000u);
  EXPECT_TRUE(chain.empty());
}

TEST(BufferChain, AppendChainSplicesWithoutCopying) {
  char ext[6] = "tail!";
  BufferChain a, b;
  a.append_copy("head:", 5);
  b.append_borrow(ext, 5);
  const uint8_t* borrowed_ptr = b.segments()[0].data;
  a.append_chain(std::move(b));
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a.borrowed_bytes(), 5u);
  // The spliced borrow still points at the caller's memory.
  EXPECT_EQ(a.segments().back().data, borrowed_ptr);
  auto flat = a.flatten();
  EXPECT_EQ(std::string(flat.begin(), flat.end()), "head:tail!");
}

// Property test: across randomized pack sequences, the chain's
// gather-serialization is byte-identical to the flat finalize() of an
// identically packed buffer, and the segment walk covers exactly size()
// bytes.  This is the invariant the whole zero-copy pipeline rests on.
TEST(BufferChain, GatherMatchesFlatFinalizeOnRandomSequences) {
  std::mt19937_64 rng(0xC0FFEE);
  // Stable pool for borrowed regions (must outlive the chains).
  std::vector<std::vector<uint8_t>> pool;
  for (int i = 0; i < 64; ++i) {
    std::vector<uint8_t> v(1 + rng() % 5000);
    for (auto& byte : v) byte = static_cast<uint8_t>(rng());
    pool.push_back(std::move(v));
  }

  for (int round = 0; round < 100; ++round) {
    PackBuffer flat_pack;
    PackBuffer chain_pack;
    auto both = [&](auto&& op) {
      op(flat_pack);
      op(chain_pack);
    };
    int ops = 1 + static_cast<int>(rng() % 24);
    for (int i = 0; i < ops; ++i) {
      switch (rng() % 5) {
        case 0:
          both([&, v = rng()](PackBuffer& p) { p.pack<uint64_t>(v); });
          break;
        case 1:
          both([&, v = static_cast<uint32_t>(rng())](PackBuffer& p) {
            p.pack<uint32_t>(v);
          });
          break;
        case 2: {
          const auto& r = pool[rng() % pool.size()];
          both([&](PackBuffer& p) {
            p.pack_region(r.data(), r.size(), PackMode::kCopy);
          });
          break;
        }
        case 3: {
          const auto& r = pool[rng() % pool.size()];
          both([&](PackBuffer& p) {
            p.pack_region(r.data(), r.size(), PackMode::kBorrow);
          });
          break;
        }
        case 4:
          both([&, s = std::string(rng() % 40, 'q')](PackBuffer& p) {
            p.pack_string(s);
          });
          break;
      }
    }
    ASSERT_EQ(flat_pack.size(), chain_pack.size());

    std::vector<uint8_t> flat = flat_pack.finalize();
    BufferChain chain = chain_pack.take_chain();
    ASSERT_EQ(chain.size(), flat.size());
    ASSERT_EQ(chain.copied_bytes() + chain.borrowed_bytes(), chain.size());

    // Segment walk covers the payload exactly and in order.
    size_t seg_total = 0;
    std::vector<uint8_t> gathered;
    gathered.reserve(chain.size());
    for (const auto& seg : chain.segments()) {
      seg_total += seg.len;
      gathered.insert(gathered.end(), seg.data, seg.data + seg.len);
    }
    ASSERT_EQ(seg_total, chain.size());
    ASSERT_EQ(gathered, flat) << "round " << round;
    // And the built-in gather agrees.
    ASSERT_EQ(chain.flatten(), flat);
    ASSERT_EQ(chain.take_flat(), flat);
  }
}

// The typed RPC packers' shapes (request: service hash, request id, byte
// vector; reply: u64) each leave pack_exact as one owned chunk, and the
// receiver's take_flat() hands over that chunk's own storage.
TEST(TypedPack, EachMessageIsOneOwnedChunkTakenWhole) {
  auto expect_one_chunk = [](PackBuffer pb, size_t want) {
    ASSERT_EQ(pb.size(), want);
    BufferChain chain = pb.take_chain();
    ASSERT_EQ(chain.segments().size(), 1u);
    EXPECT_EQ(chain.borrowed_bytes(), 0u);
    const uint8_t* storage = chain.segments()[0].data;
    std::vector<uint8_t> flat = chain.take_flat();
    EXPECT_EQ(flat.data(), storage);
    EXPECT_EQ(flat.size(), want);
    recycle(std::move(flat));
  };
  for (size_t n : {size_t{64}, size_t{4096}, size_t{16384}}) {
    std::vector<uint8_t> arg(n, 0x6b);
    const size_t want = 3 * sizeof(uint32_t) + n;
    EXPECT_EQ(packed_size(uint32_t{7}, uint32_t{1}, arg), want);
    expect_one_chunk(pack_exact(uint32_t{7}, uint32_t{1}, arg), want);
  }
  expect_one_chunk(pack_exact(uint64_t{42}), sizeof(uint64_t));
}

// The cache serves the smallest chunk that fits, not its newest entry.
// Each case runs on a fresh kernel thread: the cache is per thread.
TEST(ChunkCache, ServesTheBestFit) {
  std::thread([] {
    std::vector<uint8_t> small, fit, big;
    small.reserve(2048);
    fit.reserve(4096);
    big.reserve(16384);
    const uint8_t* fit_storage = fit.data();
    recycle(std::move(small));
    recycle(std::move(fit));
    recycle(std::move(big));  // newest
    EXPECT_EQ(chunk_cache_bytes(), 2048u + 4096u + 16384u);
    const uint64_t misses = chunk_pool_misses();
    std::vector<uint8_t> payload(3000, 0x11);
    PackBuffer pb(payload.size());
    pb.pack_bytes(payload.data(), payload.size(), PackMode::kCopy);
    BufferChain chain = pb.take_chain();
    EXPECT_EQ(chain.segments()[0].data, fit_storage);
    EXPECT_EQ(chunk_pool_misses(), misses);
    EXPECT_EQ(chunk_cache_bytes(), 2048u + 16384u);
  }).join();
}

TEST(ChunkCache, NeverHoldsMoreThanItsByteBound) {
  std::thread([] {
    for (int i = 0; i < 64; ++i) {
      std::vector<uint8_t> chunk;
      chunk.reserve(i % 2 == 0 ? kMaxPooledChunk : kMinChunk);
      recycle(std::move(chunk));
      EXPECT_LE(chunk_cache_bytes(), kChunkCacheBytes);
    }
    EXPECT_GT(chunk_cache_bytes(), kChunkCacheBytes - kMaxPooledChunk);
    // Chunks outside the pooled range are freed, not cached.
    const size_t held = chunk_cache_bytes();
    std::vector<uint8_t> huge, tiny;
    huge.reserve(kMaxPooledChunk + 1);
    tiny.reserve(kMinChunk - 1);
    recycle(std::move(huge));
    recycle(std::move(tiny));
    EXPECT_EQ(chunk_cache_bytes(), held);
  }).join();
}

}  // namespace
}  // namespace pm2::mad
