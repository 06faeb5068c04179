#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
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

// The ziggurat's R: where its base strip hands over to the tail.
constexpr double kZigguratR = 3.6541528853610088;

std::vector<double> ZigguratDraws(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& g : out) {
    g = rng.NextGaussian();
  }
  return out;
}

// The test oracle: Box-Muller over the same uniform generator.
std::vector<double> BoxMullerDraws(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n + 1);
  while (out.size() < n) {
    const double u1 = 1.0 - rng.NextDouble();  // (0, 1]: log stays finite
    const double u2 = rng.NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    out.push_back(r * std::cos(2.0 * M_PI * u2));
    out.push_back(r * std::sin(2.0 * M_PI * u2));
  }
  out.resize(n);
  return out;
}

struct Moments {
  double mean = 0.0;
  double variance = 0.0;
  double skew = 0.0;
  double kurtosis = 0.0;
};

Moments MomentsOf(const std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  Moments m;
  for (double g : v) {
    m.mean += g;
  }
  m.mean /= n;
  double m2 = 0.0;
  double m3 = 0.0;
  double m4 = 0.0;
  for (double g : v) {
    const double d = g - m.mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  m2 /= n;
  m.variance = m2;
  m.skew = m3 / n / std::pow(m2, 1.5);
  m.kurtosis = m4 / n / (m2 * m2);
  return m;
}

// Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
// empirical CDFs.
double KsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  size_t i = 0;
  size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) {
      ++i;
    }
    while (j < b.size() && b[j] == x) {
      ++j;
    }
    d = std::max(d, std::fabs(i / na - j / nb));
  }
  return d;
}

// 10^6 ziggurat draws against 10^6 Box-Muller draws: the KS statistic stays
// under its 0.1% critical value, 1.949 * sqrt(2 / n), and both samples'
// first four moments sit within 5 standard errors of N(0, 1)'s.
TEST(RngTest, ZigguratMatchesBoxMullerReference) {
  constexpr size_t kN = 1000000;
  const std::vector<double> zig = ZigguratDraws(101, kN);
  const std::vector<double> ref = BoxMullerDraws(202, kN);
  EXPECT_LT(KsStatistic(zig, ref), 1.949 * std::sqrt(2.0 / kN));
  const double n = static_cast<double>(kN);
  for (const std::vector<double>* sample : {&zig, &ref}) {
    const Moments m = MomentsOf(*sample);
    SCOPED_TRACE(sample == &zig ? "ziggurat" : "box-muller");
    EXPECT_NEAR(m.mean, 0.0, 5.0 * std::sqrt(1.0 / n));
    EXPECT_NEAR(m.variance, 1.0, 5.0 * std::sqrt(2.0 / n));
    EXPECT_NEAR(m.skew, 0.0, 5.0 * std::sqrt(6.0 / n));
    EXPECT_NEAR(m.kurtosis, 3.0, 5.0 * std::sqrt(24.0 / n));
  }
}

// The mass beyond R comes only from the tail fallback: it must match
// P(|Z| > R) within 4 binomial standard deviations (about 258 of 10^6).
TEST(RngTest, ZigguratTailMassBeyondR) {
  constexpr size_t kN = 1000000;
  const std::vector<double> zig = ZigguratDraws(303, kN);
  const auto beyond = std::count_if(zig.begin(), zig.end(),
                                    [](double g) { return std::fabs(g) > kZigguratR; });
  const double p = std::erfc(kZigguratR / std::sqrt(2.0));
  const double expected = p * kN;
  EXPECT_GT(beyond, 0);
  EXPECT_NEAR(static_cast<double>(beyond), expected, 4.0 * std::sqrt(expected * (1.0 - p)));
}

// The tables define equal-area layers under f(x) = exp(-x^2 / 2): every
// layer's area x[i] * (f[i+1] - f[i]) is V, the base strip's area including
// the tail beyond R.
TEST(RngTest, ZigguratTablesHoldTheirIdentities) {
  const int layers = Rng::kZigguratLayers;
  const double* x = Rng::kZigguratX;
  const double* f = Rng::kZigguratF;
  const double r = kZigguratR;
  const double v =
      r * std::exp(-0.5 * r * r) + std::sqrt(M_PI / 2.0) * std::erfc(r / std::sqrt(2.0));
  EXPECT_EQ(x[1], r);
  EXPECT_EQ(x[layers], 0.0);
  EXPECT_EQ(f[0], 0.0);
  EXPECT_EQ(f[layers], 1.0);
  for (int i = 0; i < layers; ++i) {
    SCOPED_TRACE(::testing::Message() << "layer " << i);
    EXPECT_NEAR(x[i] * (f[i + 1] - f[i]) / v, 1.0, 1e-12);
    EXPECT_GT(x[i], x[i + 1]);
    EXPECT_LT(f[i], f[i + 1]);
    if (i > 0) {
      EXPECT_NEAR(f[i] / std::exp(-0.5 * x[i] * x[i]), 1.0, 1e-14);
    }
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// One seed, one stream: two generators agree draw for draw, also after a
// draw that fell outside its layer's rectangle and consumed extra words.
// A draw that took one word is exactly the Doornik mapping of that word.
TEST(RngTest, ZigguratSameSeedSameStreamAcrossRejections) {
  Rng a(41);
  Rng b(41);
  int multi_word_draws = 0;
  for (int i = 0; i < 20000; ++i) {
    Rng one_word = a;
    const uint64_t bits = one_word.NextU64();
    const double g = a.NextGaussian();
    ASSERT_TRUE(SameBits(g, b.NextGaussian())) << "draw " << i;
    Rng after = a;
    if (after.NextU64() != one_word.NextU64()) {
      ++multi_word_draws;
      continue;
    }
    const int layer = static_cast<int>(bits & 0xff);
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    ASSERT_TRUE(SameBits(g, u * Rng::kZigguratX[layer])) << "draw " << i;
  }
  // About 1.5% of draws leave the rectangle; some of those take more words.
  EXPECT_GT(multi_word_draws, 0);
  EXPECT_EQ(a.NextU64(), b.NextU64());
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
