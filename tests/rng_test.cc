#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace xnuma {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(13);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 13);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoolProbabilityRoughlyRespected) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(13);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  EXPECT_FALSE(rng.NextBool(-1.0));
  EXPECT_TRUE(rng.NextBool(2.0));
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// FillGaussian(out, n) must be indistinguishable from n NextGaussian()
// calls: the same values bit for bit, and the same generator state after
// (pending half-pair included), whether or not a half-pair was pending on
// entry.
TEST(RngTest, FillGaussianMatchesSuccessiveNextGaussian) {
  for (const bool pending_on_entry : {false, true}) {
    for (const size_t n : {0, 1, 2, 3, 7, 8, 1023, 1024}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " pending=" << pending_on_entry);
      Rng serial(31);
      Rng batched(31);
      if (pending_on_entry) {
        serial.NextGaussian();  // leaves the sine half pending
        batched.NextGaussian();
      }
      std::vector<double> want(n);
      for (double& g : want) {
        g = serial.NextGaussian();
      }
      std::vector<double> got(n, -1.0);
      batched.FillGaussian(got.data(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(SameBits(want[i], got[i])) << "i=" << i;
      }
      // The state left behind agrees too: a pending half-pair first, then
      // the raw stream.
      for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(SameBits(serial.NextGaussian(), batched.NextGaussian()));
      }
      EXPECT_EQ(serial.NextU64(), batched.NextU64());
    }
  }
}

TEST(RngTest, FillGaussianChunksComposeIntoOneStream) {
  // Any split of a fill into chunks yields the same stream as one fill.
  Rng whole(37);
  Rng chunked(37);
  std::vector<double> want(41);
  whole.FillGaussian(want.data(), want.size());
  std::vector<double> got(41);
  size_t at = 0;
  for (const size_t len : {5, 0, 1, 16, 19}) {
    chunked.FillGaussian(got.data() + at, len);
    at += len;
  }
  ASSERT_EQ(at, got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBits(want[i], got[i])) << "i=" << i;
  }
  EXPECT_EQ(whole.NextU64(), chunked.NextU64());
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(21);
  parent_copy.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextU64() == parent.NextU64()) {
      ++same;
    }
  }
  EXPECT_LE(same, 1);
}

TEST(RngTest, UniformityAcrossBuckets) {
  Rng rng(23);
  const int buckets = 16;
  std::vector<int> counts(buckets, 0);
  const int n = 32000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextInt(buckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / buckets, 0.15 * n / buckets);
  }
}

}  // namespace
}  // namespace xnuma
