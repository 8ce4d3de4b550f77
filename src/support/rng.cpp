#include "support/rng.hpp"

#include "support/error.hpp"

namespace psnap {

namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

uint64_t Rng::next() {
  const uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

uint64_t Rng::below(uint64_t bound) {
  if (bound == 0) throw Error("Rng::below: bound must be positive");
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  while (true) {
    uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::between(int64_t lo, int64_t hi) {
  if (lo > hi) throw Error("Rng::between: lo > hi");
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(below(span));
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

double Rng::normal(double mean, double stddev) {
  double sum = 0;
  for (int i = 0; i < 12; ++i) sum += uniform();
  return mean + stddev * (sum - 6.0);
}

double Rng::totalWeight(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  return total;
}

size_t Rng::weighted(const std::vector<double>& weights) {
  return weighted(weights, totalWeight(weights));
}

size_t Rng::weighted(const std::vector<double>& weights, double total) {
  if (total <= 0) throw Error("Rng::weighted: total weight must be positive");
  double pick = uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    pick -= weights[i];
    if (pick < 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace psnap
