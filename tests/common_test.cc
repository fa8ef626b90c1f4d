// Unit tests for the common layer: Status/Result, the deterministic RNG,
// and the salted hash.

#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/macros.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace gammadb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::NotFound("relation foo");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.ToString(), "NotFound: relation foo");
}

TEST(StatusTest, CodePredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_FALSE(Status::Corruption("x").IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::NotFound("gone");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("hello"));
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "hello");
}

Result<int> Doubler(Result<int> in) {
  GAMMA_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_TRUE(Doubler(Status::NotFound("x")).status().IsNotFound());
}

TEST(CheckMsgDeathTest, PrintsComposedStdStringMessage) {
  const Status status = Status::FailedPrecondition("lock conflict on R");
  EXPECT_DEATH(GAMMA_CHECK_MSG(status.ok(), "statement failed: " +
                                                status.message()),
               "GAMMA_CHECK failed: status\\.ok\\(\\) \\(statement failed: "
               "lock conflict on R\\) at ");
  EXPECT_DEATH(GAMMA_CHECK_MSG(false, "literal message"),
               "\\(literal message\\)");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next64() != b.Next64()) ++differences;
  }
  EXPECT_GT(differences, 12);
}

TEST(RngTest, UniformWithinBound) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(123);
  const auto perm = rng.Permutation(1000);
  std::set<uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 999u);
}

TEST(HashTest, SaltsAreIndependent) {
  // The overflow machinery depends on residency hashes being independent of
  // the routing hash: same keys, different salts, different bit patterns.
  int agree = 0;
  for (int32_t key = 0; key < 1000; ++key) {
    const bool bit_a = HashInt32(key, 1) & 1;
    const bool bit_b = HashInt32(key, 2) & 1;
    if (bit_a == bit_b) ++agree;
  }
  EXPECT_GT(agree, 350);
  EXPECT_LT(agree, 650);
}

TEST(HashTest, ReasonablyUniformBuckets) {
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {0};
  for (int32_t key = 0; key < 8000; ++key) {
    counts[HashInt32(key, 42) % kBuckets] += 1;
  }
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    EXPECT_GT(counts[bucket], 800);
    EXPECT_LT(counts[bucket], 1200);
  }
}

// Declustering, split tables, overflow rounds, split-table bucket maps and
// fault schedules all route by these functions, so a changed output moves
// simulated results. Pinned values (little-endian key bytes) guard against
// a host-speed rewrite silently changing them.
TEST(HashTest, GoldenOutputsArePinned) {
  EXPECT_EQ(HashBytes("", 0, 0), 0xecba3df2c3383c52ULL);
  EXPECT_EQ(HashBytes("gamma", 5, 0), 0x15a1784aa59ebf81ULL);

  struct SeedCase {
    uint64_t salt;
    uint64_t seed;
    uint64_t hash;
  };
  // The join routing, bucket-map and overflow-round salts (gamma/machine.cc)
  // over a 64-bit seed word.
  for (const SeedCase& c : {SeedCase{0x407E, 0, 0x268e961063a38301ULL},
                            SeedCase{0x407E, 42, 0x0dae854391175e91ULL},
                            SeedCase{0xB0C4, 0, 0xa0493a2c97c03e2bULL},
                            SeedCase{0xB0C4, 42, 0x9099fa2570697009ULL},
                            SeedCase{0x0F107, 0, 0x223e6c672c3ff86dULL},
                            SeedCase{0x0F107, 42, 0x7c6e60e6027f2578ULL}}) {
    EXPECT_EQ(HashBytes(&c.seed, sizeof(c.seed), c.salt), c.hash)
        << "salt " << c.salt << " seed " << c.seed;
  }
  // The fault injector's per-node disk and packet stream seeds.
  const uint64_t disk_key[2] = {7, 3};
  EXPECT_EQ(HashBytes(disk_key, sizeof(disk_key), 0xFA017),
            0xf5bd90eb64c87591ULL);
  const uint64_t packet_key[3] = {7, 3, 0x9AC4E7};
  EXPECT_EQ(HashBytes(packet_key, sizeof(packet_key), 0xFA017),
            0x3ec99bef98a39938ULL);

  struct KeyCase {
    int32_t key;
    uint64_t salt;
    uint64_t hash;
  };
  for (const KeyCase& c :
       {KeyCase{0, 0, 0x2cc9946cd4f76bf4ULL},
        KeyCase{1, 0, 0x6ee25e78bcd9652fULL},
        KeyCase{-1, 0, 0x436a82b931cbcc1bULL},
        KeyCase{123456, 0, 0x31d3c6c46af7710eULL},
        KeyCase{INT32_MAX, 0, 0xd72292dfb5cfe4a8ULL},
        KeyCase{INT32_MIN, 0, 0xef530ff9252447beULL},
        KeyCase{0, 7, 0x3349195ed7360efeULL},
        KeyCase{1, 7, 0xa9d226b8d2bad5fcULL},
        KeyCase{-1, 7, 0xbedfa588350e85edULL},
        KeyCase{123456, 7, 0x4238c0e5d2bcaa37ULL},
        KeyCase{INT32_MAX, 7, 0x0d2dfe6c2adb159fULL},
        KeyCase{INT32_MIN, 7, 0xd56d5c77adc857eaULL},
        KeyCase{0, 0x407E, 0xff25053e15f3a265ULL},
        KeyCase{1, 0x407E, 0xb41929abab830e76ULL},
        KeyCase{-1, 0x407E, 0xc3f2213a63077c36ULL},
        KeyCase{123456, 0x407E, 0x27cb4d187c1edc82ULL},
        KeyCase{INT32_MAX, 0x407E, 0x41deca19fe6e6527ULL},
        KeyCase{INT32_MIN, 0x407E, 0x128deee2b1f26b0bULL}}) {
    EXPECT_EQ(HashInt32(c.key, c.salt), c.hash)
        << "key " << c.key << " salt " << c.salt;
    EXPECT_EQ(HashInt32(c.key, c.salt),
              HashBytes(&c.key, sizeof(c.key), c.salt));
  }
}

}  // namespace
}  // namespace gammadb
