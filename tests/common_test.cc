// Unit tests for src/common: RNG, Zipf, statistical helpers.
#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "common/zipf.h"
#include "estimator/error_model.h"

namespace capd {
namespace {

TEST(RandomTest, DeterministicUnderSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(1000), b.Next(1000));
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next(1000000) == b.Next(1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RandomTest, UniformBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, SampleIndicesExactSizeSortedUnique) {
  Random rng(11);
  for (uint64_t n : {10u, 100u, 1000u}) {
    for (uint64_t k : {1u, 5u, 9u}) {
      auto s = rng.SampleIndices(n, std::min<uint64_t>(k, n));
      EXPECT_EQ(s.size(), std::min<uint64_t>(k, n));
      EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
      std::set<uint64_t> uniq(s.begin(), s.end());
      EXPECT_EQ(uniq.size(), s.size());
      for (uint64_t idx : s) EXPECT_LT(idx, n);
    }
  }
}

TEST(RandomTest, SampleIndicesFullRange) {
  Random rng(13);
  auto s = rng.SampleIndices(20, 20);
  EXPECT_EQ(s.size(), 20u);
  for (uint64_t i = 0; i < 20; ++i) EXPECT_EQ(s[i], i);
}

TEST(RandomTest, SampleIndicesRoughlyUniform) {
  Random rng(17);
  std::vector<int> hits(10, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    for (uint64_t idx : rng.SampleIndices(10, 3)) hits[idx]++;
  }
  // Each index expected 600 hits; allow generous slack.
  for (int h : hits) {
    EXPECT_GT(h, 450);
    EXPECT_LT(h, 750);
  }
}

TEST(ZipfTest, ThetaZeroIsUniformish) {
  ZipfGenerator zipf(10, 0.0);
  Random rng(3);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) hits[zipf.Next(&rng)]++;
  for (int h : hits) {
    EXPECT_GT(h, 800);
    EXPECT_LT(h, 1200);
  }
}

TEST(ZipfTest, HighThetaConcentratesOnLowRanks) {
  ZipfGenerator zipf(1000, 2.0);
  Random rng(5);
  int head = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (zipf.Next(&rng) < 10) ++head;
  }
  EXPECT_GT(head, kTrials * 3 / 4);  // rank<10 dominates at theta=2
}

TEST(ZipfTest, RanksInRange) {
  ZipfGenerator zipf(50, 1.0);
  Random rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Next(&rng), 50u);
}

TEST(MathTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-9);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(MathTest, NormalProbBetweenDegenerate) {
  EXPECT_EQ(NormalProbBetween(0.5, 0.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(NormalProbBetween(2.0, 0.0, 0.0, 1.0), 0.0);
}

TEST(MathTest, ProbWithinToleranceUnbiasedTight) {
  // Tiny variance => certainly within any tolerance.
  EXPECT_GT(ProbWithinTolerance(0.0, 1e-8, 0.2), 0.999);
  // Huge variance => low probability.
  EXPECT_LT(ProbWithinTolerance(0.0, 10.0, 0.2), 0.3);
}

TEST(MathTest, ProbWithinToleranceBiasHurts) {
  const double unbiased = ProbWithinTolerance(0.0, 0.01, 0.2);
  const double biased = ProbWithinTolerance(0.25, 0.01, 0.2);
  EXPECT_GT(unbiased, biased);
}

TEST(MathTest, ComposeErrorsMatchesGoodman) {
  // Two variables: Var(XY) = (v1+m1^2)(v2+m2^2) - m1^2 m2^2, with the
  // means m = 1 + bias.
  const ErrorStats xy = ComposeErrors({{0.0, 0.1}, {1.0, 0.2}});
  EXPECT_NEAR(xy.bias, 1.0, 1e-12);
  EXPECT_NEAR(xy.variance, (0.1 + 1.0) * (0.2 + 4.0) - 4.0, 1e-12);
}

TEST(MathTest, ComposeErrorsZeroVariances) {
  EXPECT_NEAR(ComposeErrors({{0.5, 0.0}, {1.0, 0.0}}).variance, 0.0, 1e-12);
}

TEST(MathTest, ComposeErrorsAgreesWithSimulation) {
  // Monte-Carlo check of Goodman's formula for independent normals.
  Random rng(123);
  std::normal_distribution<double> n1(1.0, 0.05), n2(1.0, 0.1);
  std::vector<double> prods;
  for (int i = 0; i < 200000; ++i) {
    prods.push_back(n1(rng.engine()) * n2(rng.engine()));
  }
  const double sim_var = StdDev(prods) * StdDev(prods);
  const double formula = ComposeErrors({{0.0, 0.0025}, {0.0, 0.01}}).variance;
  EXPECT_NEAR(sim_var, formula, 0.001);
}

TEST(MathTest, FitLogCoefficientRecoversPlanted) {
  // y = -0.015 ln(x)
  std::vector<double> xs = {0.01, 0.02, 0.05, 0.1};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(-0.015 * std::log(x));
  EXPECT_NEAR(FitLogCoefficient(xs, ys), -0.015, 1e-9);
}

TEST(MathTest, FitLinearThroughOriginRecoversPlanted) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {0.01, 0.02, 0.03, 0.04};
  EXPECT_NEAR(FitLinearThroughOrigin(xs, ys), 0.01, 1e-9);
}

TEST(MathTest, MeanAndStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(Mean(xs), 5.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), 2.0, 1e-12);
}

// Reference: the bitmap-membership Floyd variant SampleIndices used before
// the hash-set swap. The emitted indices and engine consumption must be
// identical for any (seed, n, k) in the Floyd regime.
std::vector<uint64_t> BitmapFloydReference(uint64_t n, uint64_t k,
                                           Random* rng) {
  std::vector<uint64_t> picked;
  picked.reserve(k);
  std::vector<bool> seen(n);
  for (uint64_t j = n - k; j < n; ++j) {
    const uint64_t t = rng->Next(j + 1);
    if (!seen[t]) {
      seen[t] = true;
      picked.push_back(t);
    } else {
      seen[j] = true;
      picked.push_back(j);
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

TEST(RandomTest, SampleIndicesMatchesBitmapFloydReference) {
  const struct {
    uint64_t seed, n, k;
  } cases[] = {{1, 1000, 10},    {2, 1000, 400},  {42, 50000, 500},
               {7, 123457, 777}, {99, 10000, 1},  {20110829, 65536, 4000}};
  for (const auto& c : cases) {
    Random a(c.seed), b(c.seed);
    EXPECT_EQ(a.SampleIndices(c.n, c.k), BitmapFloydReference(c.n, c.k, &b))
        << "seed=" << c.seed << " n=" << c.n << " k=" << c.k;
    // Both must have consumed the engine identically.
    EXPECT_EQ(a.Next(1u << 30), b.Next(1u << 30));
  }
}

// Reference: the uncapped CDF table + lower_bound draw ZipfGenerator used
// before the cap. For n <= kCdfCap the capped generator must be
// bit-identical, both in draws and in engine consumption.
TEST(ZipfTest, SubCapBitIdenticalToUncappedReference) {
  for (const double theta : {0.0, 0.5, 1.0, 2.0}) {
    const uint64_t n = 50000;
    std::vector<double> cdf(n);
    double total = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf[i] = total;
    }
    for (uint64_t i = 0; i < n; ++i) cdf[i] /= total;

    const ZipfGenerator zipf(n, theta);
    EXPECT_EQ(zipf.head_mass(), 1.0);
    Random a(17), b(17);
    for (int i = 0; i < 20000; ++i) {
      const double u = b.NextDouble();
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      const uint64_t expected =
          it == cdf.end() ? n - 1 : static_cast<uint64_t>(it - cdf.begin());
      ASSERT_EQ(zipf.Next(&a), expected) << "theta=" << theta << " i=" << i;
    }
  }
}

TEST(ZipfTest, CappedTailMatchesAnalyticMass) {
  // n four times the cap: a real analytic tail, still fast to sample.
  const uint64_t n = 4 * ZipfGenerator::kCdfCap;
  const ZipfGenerator zipf(n, 1.0);
  EXPECT_LT(zipf.head_mass(), 1.0);
  EXPECT_GT(zipf.head_mass(), 0.9);  // theta=1: head holds most of the mass

  Random rng(123);
  const int kDraws = 200000;
  int tail_draws = 0;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t r = zipf.Next(&rng);
    ASSERT_LT(r, n);
    if (r >= ZipfGenerator::kCdfCap) ++tail_draws;
  }
  const double expected = 1.0 - zipf.head_mass();
  const double observed = static_cast<double>(tail_draws) / kDraws;
  EXPECT_NEAR(observed, expected, 0.2 * expected + 1e-4);
}

TEST(ZipfTest, NextConsumesExactlyOneDoubleInBothRegimes) {
  for (const uint64_t n : {uint64_t{1000}, 4 * ZipfGenerator::kCdfCap}) {
    const ZipfGenerator zipf(n, 1.0);
    Random a(5), b(5);
    for (int i = 0; i < 5000; ++i) {
      zipf.Next(&a);
      b.NextDouble();
    }
    EXPECT_EQ(a.Next(1u << 30), b.Next(1u << 30)) << "n=" << n;
  }
}

// Reference for Rank: the constructor's CDF loop, including the analytic
// tail mass above kCdfCap, searched with a plain lower_bound over the
// whole table.
std::vector<double> ReferenceZipfCdf(uint64_t n, double theta) {
  const uint64_t head = std::min(n, ZipfGenerator::kCdfCap);
  std::vector<double> cdf(head);
  double total = 0.0;
  for (uint64_t i = 0; i < head; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf[i] = total;
  }
  if (n > head) {
    const double a = static_cast<double>(head) + 0.5;
    const double b = static_cast<double>(n) + 0.5;
    total += theta == 1.0 ? std::log(b / a)
                          : (std::pow(b, 1.0 - theta) -
                             std::pow(a, 1.0 - theta)) /
                                (1.0 - theta);
  }
  for (uint64_t i = 0; i < head; ++i) cdf[i] /= total;
  return cdf;
}

TEST(ZipfTest, GuidedRankMatchesFullLowerBound) {
  for (const uint64_t n : {uint64_t{1}, uint64_t{30}, uint64_t{7500},
                           ZipfGenerator::kCdfCap + 5000}) {
    for (const double theta : {1.0, 3.0}) {
      const ZipfGenerator zipf(n, theta);
      const std::vector<double> cdf = ReferenceZipfCdf(n, theta);
      ASSERT_EQ(zipf.head_mass(), cdf.back()) << "n=" << n;
      // Above kCdfCap only draws below the head mass are compared exactly:
      // the tail path past the table is unchanged, so the others need only
      // reach it.
      const bool capped = n > cdf.size();
      auto check = [&](double u) {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        if (capped && it == cdf.end()) {
          ASSERT_GE(zipf.Rank(u), cdf.size()) << "n=" << n << " u=" << u;
          return;
        }
        const uint64_t want =
            it == cdf.end() ? n - 1 : static_cast<uint64_t>(it - cdf.begin());
        ASSERT_EQ(zipf.Rank(u), want)
            << "n=" << n << " theta=" << theta << " u=" << u;
      };
      // Every edge of every guide-table size (each is a power of two up to
      // kMaxGuideBuckets), and the double just below each edge.
      const uint64_t buckets = ZipfGenerator::kMaxGuideBuckets;
      for (uint64_t j = 0; j <= buckets; ++j) {
        const double edge =
            static_cast<double>(j) / static_cast<double>(buckets);
        check(edge);
        if (j > 0) check(std::nextafter(edge, 0.0));
      }
      Random rng(n + static_cast<uint64_t>(theta));
      for (int i = 0; i < 100000; ++i) check(rng.NextDouble());
    }
  }
}

TEST(ZipfTest, HundredMillionKeysConstructsCapped) {
  // O(cap) memory and construction: the CDF table stops at kCdfCap no
  // matter how large n is.
  const uint64_t n = 100000000;
  const ZipfGenerator zipf(n, 1.0);
  EXPECT_EQ(zipf.n(), n);
  EXPECT_LT(zipf.head_mass(), 1.0);
  Random rng(31337);
  bool saw_tail = false;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t r = zipf.Next(&rng);
    ASSERT_LT(r, n);
    if (r >= ZipfGenerator::kCdfCap) saw_tail = true;
  }
  EXPECT_TRUE(saw_tail);
}

TEST(MathTest, RoundedFractionMatchesLegacyCastForSmallN) {
  const uint64_t ns[] = {0, 1, 7, 100, 9999, 1000000, 1ull << 40, 1ull << 52};
  const double fs[] = {1e-9, 0.001, 0.01, 0.025, 0.3333333333, 0.5, 0.999};
  for (const uint64_t n : ns) {
    for (const double f : fs) {
      EXPECT_EQ(RoundedFraction(n, f),
                static_cast<uint64_t>(static_cast<double>(n) * f + 0.5))
          << "n=" << n << " f=" << f;
    }
  }
}

TEST(MathTest, RoundedFractionExtremes) {
  EXPECT_EQ(RoundedFraction(1000, 0.0), 0u);
  EXPECT_EQ(RoundedFraction(1000, -0.5), 0u);
  EXPECT_EQ(RoundedFraction(1000, 1.0), 1000u);
  EXPECT_EQ(RoundedFraction(1000, 2.0), 1000u);
  EXPECT_EQ(RoundedFraction(0, 0.5), 0u);
  // Above 2^52 the double product loses integer precision; the long-double
  // path must stay in range and never overflow to 0 or wrap.
  const uint64_t huge = ~0ull;  // 2^64 - 1
  const double near_one = 1.0 - 1e-15;
  const uint64_t r = RoundedFraction(huge, near_one);
  EXPECT_LE(r, huge);
  EXPECT_GT(r, huge / 2);
  // A tiny fraction of a huge n is ~n*f.
  const uint64_t small = RoundedFraction(1ull << 60, 1e-12);
  EXPECT_NEAR(static_cast<double>(small),
              static_cast<double>(1ull << 60) * 1e-12, 1e3);
}

}  // namespace
}  // namespace capd
