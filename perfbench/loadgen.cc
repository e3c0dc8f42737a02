#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

namespace perfbench {
namespace {

/// Uniform double in [0, 1) from the top 53 bits of one draw.
double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Uniform integer in [0, bound) by rejection (no modulo bias).
std::uint64_t Bounded(std::mt19937_64& rng, std::uint64_t bound) {
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t draw = rng();
  while (draw >= limit) draw = rng();
  return draw % bound;
}

}  // namespace

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over the pair: nearby seeds give unrelated
  // streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> ShuffledOrder(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[Bounded(rng, i)]);
  }
  return order;
}

std::vector<double> PoissonSchedule(std::size_t n, double rate_per_s,
                                    std::uint64_t seed) {
  std::vector<double> at(n);
  std::mt19937_64 rng(seed);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-Unit(rng)) / rate_per_s;
    at[i] = t;
  }
  return at;
}

std::vector<std::size_t> ZipfHotDraw(std::size_t pool, std::size_t hot,
                                     std::size_t n, double exponent,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  // The hot set: the first `hot` entries of a partial shuffle of the pool.
  std::vector<std::size_t> members(pool);
  for (std::size_t i = 0; i < pool; ++i) members[i] = i;
  for (std::size_t i = 0; i < hot; ++i) {
    std::swap(members[i], members[i + Bounded(rng, pool - i)]);
  }
  members.resize(hot);

  std::vector<double> cdf(hot);
  double total = 0.0;
  for (std::size_t r = 0; r < hot; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  std::vector<std::size_t> draws(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = Unit(rng) * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    draws[i] = members[std::min(rank, hot - 1)];
  }
  return draws;
}

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = static_cast<std::size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), p.value));
  return p;
}

double CoveredLength(const Interval& parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double reach = parent.start;  // end of the union so far
  for (const Interval& child : children) {
    if (child.end <= child.start) continue;  // empty after clipping
    const double from = std::max(child.start, reach);
    if (child.end > from) {
      covered += child.end - from;
      reach = child.end;
    }
  }
  return covered;
}

double SelfTime(const Interval& parent, const std::vector<Interval>& children) {
  return (parent.end - parent.start) - CoveredLength(parent, children);
}

}  // namespace perfbench
