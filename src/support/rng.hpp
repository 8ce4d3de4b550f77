// Deterministic random number generation for workload generators.
//
// Every generator in this repo takes an explicit seed so that workloads,
// tests, and benchmark rows are bit-reproducible across runs and machines
// (a requirement for regenerating the paper's figures deterministically).
// We use our own splitmix64/xoshiro256** rather than std::mt19937 because
// the standard distributions are not guaranteed to produce identical
// sequences across standard library implementations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psnap {

/// xoshiro256** seeded via splitmix64. Deterministic across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t next();

  /// Uniform integer in [0, bound) via rejection sampling (no modulo bias).
  uint64_t below(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t between(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Approximately normal (Irwin–Hall sum of 12 uniforms), deterministic.
  double normal(double mean, double stddev);

  /// Pick an index in [0, weights.size()) proportional to weights.
  size_t weighted(const std::vector<double>& weights);

  /// The same pick with the weights' total precomputed, for callers that
  /// draw many times from one weight vector. With `total` equal to
  /// totalWeight(weights) the pick equals the one-argument overload's.
  size_t weighted(const std::vector<double>& weights, double total);

  /// The in-order sum of `weights` that weighted() draws against.
  static double totalWeight(const std::vector<double>& weights);

 private:
  uint64_t state_[4];
};

}  // namespace psnap
