#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/error.hpp"

namespace psnap {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    sawLo |= (v == -2);
    sawHi |= (v == 2);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, BetweenBadRangeThrows) {
  Rng rng(9);
  EXPECT_THROW(rng.between(3, 1), Error);
}

TEST(Rng, UniformRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanReasonable) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal(10, 2);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10, 0.1);
  EXPECT_NEAR(var, 4, 0.3);
}

TEST(Rng, WeightedRespectsZeroWeight) {
  Rng rng(19);
  for (int i = 0; i < 500; ++i) {
    size_t pick = rng.weighted({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
}

TEST(Rng, WeightedProportions) {
  Rng rng(23);
  int counts[2] = {0, 0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted({3.0, 1.0})];
  EXPECT_NEAR(double(counts[0]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedAllZeroThrows) {
  Rng rng(29);
  EXPECT_THROW(rng.weighted({0.0, 0.0}), Error);
}

// The precomputed-total entry must draw exactly what the re-summing entry
// draws: same picks, same generator state afterwards.
TEST(Rng, WeightedWithTotalMatchesResummingEntry) {
  std::vector<std::vector<double>> vectors = {
      {1.0},
      {3.0, 1.0},
      {0.0, 1.0, 0.0},
      {0.1, 0.2, 0.3, 0.4},
      {1e-300, 1.0, 1e300},
  };
  std::vector<double> zipf(2000);
  for (size_t r = 0; r < zipf.size(); ++r) zipf[r] = 1.0 / double(r + 1);
  vectors.push_back(zipf);
  Rng shape(31);
  std::vector<double> uneven(97);
  for (double& w : uneven) {
    const bool zero = shape.below(4) == 0;
    w = zero ? 0.0 : 7.0 * shape.uniform();
  }
  vectors.push_back(uneven);
  for (const std::vector<double>& weights : vectors) {
    const double total = Rng::totalWeight(weights);
    for (uint64_t seed = 0; seed < 1000; ++seed) {
      Rng summing(seed);
      Rng precomputed(seed);
      for (int draw = 0; draw < 8; ++draw) {
        ASSERT_EQ(summing.weighted(weights),
                  precomputed.weighted(weights, total))
            << "seed " << seed << ", draw " << draw << ", "
            << weights.size() << " weights";
      }
      ASSERT_EQ(summing.next(), precomputed.next()) << "seed " << seed;
    }
  }
}

TEST(Rng, WeightedWithZeroTotalThrows) {
  Rng rng(37);
  EXPECT_THROW(rng.weighted({0.0, 0.0}, 0.0), Error);
}

}  // namespace
}  // namespace psnap
