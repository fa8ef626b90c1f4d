// Unit tests for the common layer: Status/Result, the deterministic RNG,
// and the salted hash.

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

}  // namespace
}  // namespace gammadb
