#ifndef GREDVIS_PERFBENCH_LOADGEN_H_
#define GREDVIS_PERFBENCH_LOADGEN_H_

// Pure functions of the served-path benchmark: seeded request order,
// open-loop arrival schedules, the Zipf hot-set draw, nearest-rank
// percentiles and span self time. Everything here is deterministic in
// its arguments (std::mt19937_64 has a standard-specified sequence and
// the distributions are written out by hand), so the same seed gives
// the same inputs on every machine and every commit.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Derives an independent stream seed for one use (`stream`) of the
/// workload seed, so order, schedule and hot set never share draws.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

/// A seeded permutation of [0, n) (Fisher-Yates).
std::vector<std::size_t> ShuffledOrder(std::size_t n, std::uint64_t seed);

/// Open-loop Poisson arrivals: `n` send times in seconds from the phase
/// start, with exponential gaps of mean 1/`rate_per_s`. Ascending; the
/// first request is due after one gap, not at zero.
std::vector<double> PoissonSchedule(std::size_t n, double rate_per_s,
                                    std::uint64_t seed);

/// `n` draws from a hot set of `hot` distinct indices taken from
/// [0, pool). Hot-set rank r (0-based) is drawn with probability
/// proportional to 1/(r+1)^`exponent` (Zipf), as a dashboard re-asking
/// a few questions often and many rarely. Requires 0 < hot <= pool.
std::vector<std::size_t> ZipfHotDraw(std::size_t pool, std::size_t hot,
                                     std::size_t n, double exponent,
                                     std::uint64_t seed);

/// A nearest-rank percentile together with its evidence: how many
/// samples it was taken from and how many lie strictly beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank percentile `q` in (0, 1] of `samples`: the smallest
/// sample with at least ceil(q * n) samples at or below it. Empty input
/// gives a zero-sample result.
Percentile NearestRank(std::vector<double> samples, double q);

/// A closed time interval [start, end] in any one unit.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the part of `parent` that the union of `children` covers
/// (children are clipped to the parent; overlaps count once).
double CoveredLength(const Interval& parent, std::vector<Interval> children);

/// Self time of a span: its duration minus the interval its child spans
/// cover.
double SelfTime(const Interval& parent, const std::vector<Interval>& children);

}  // namespace perfbench

#endif  // GREDVIS_PERFBENCH_LOADGEN_H_
