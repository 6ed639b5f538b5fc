// Pure arithmetic of the benchmark: percentile selection, span self time
// and the CPU accounting that keeps the load generator's own work out of
// the system's numbers. Header-only so the self-test links nothing else.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples a percentile needs strictly beyond it before it is reported:
/// below that, the tail value is one or two outliers, not a percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// A percentile as reported: which percentile it is, its value and the
/// number of samples it was taken from.
struct Percentile {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// True when `n` samples leave at least kMinTailSamples beyond `pct`.
inline bool PercentileSupported(std::size_t n, double pct) {
  return static_cast<double>(n) * (100.0 - pct) / 100.0 >=
         static_cast<double>(kMinTailSamples) - 1e-9;
}

/// The highest percentile of the ladder 50/90/99/99.9 that `n` samples
/// support, capped at `want`; 0 when even the median is unsupported.
inline double SupportedPercentile(std::size_t n, double want) {
  static constexpr double kLadder[] = {99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (p <= want && PercentileSupported(n, p)) return p;
  }
  return 0.0;
}

/// Nearest-rank percentile of sorted samples (the smallest sample with
/// at least pct% of the samples at or below it).
inline double NearestRank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  if (idx > 0) --idx;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The `want` percentile of `samples` (sorted in place), or the highest
/// lower percentile the sample count supports.
inline Percentile SelectPercentile(std::vector<double>& samples, double want) {
  std::sort(samples.begin(), samples.end());
  Percentile out;
  out.samples = samples.size();
  out.pct = SupportedPercentile(samples.size(), want);
  if (out.pct > 0.0) out.value = NearestRank(samples, out.pct);
  return out;
}

/// CPU of one load-generator thread over a measured phase: its whole
/// thread CPU, and the part spent inside calls into the system under
/// test (the client library, service and router calls it makes).
struct GeneratorCpu {
  std::int64_t thread_ns = 0;
  std::int64_t in_sut_calls_ns = 0;
};

/// CPU the generator threads spent outside their calls into the system
/// (generating batches, sleeping on the schedule, recording samples,
/// replaying deltas), in nanoseconds.
inline std::int64_t GeneratorOwnNs(
    const std::vector<GeneratorCpu>& generators) {
  std::int64_t own = 0;
  for (const GeneratorCpu& g : generators) {
    own += std::max<std::int64_t>(0, g.thread_ns - g.in_sut_calls_ns);
  }
  return own;
}

/// CPU the system under test spent per record, in microseconds: process
/// CPU minus the generator's own CPU, divided by the records applied.
inline double SutCpuUsPerRecord(std::int64_t process_ns,
                                const std::vector<GeneratorCpu>& generators,
                                std::uint64_t records) {
  if (records == 0) return 0.0;
  return static_cast<double>(process_ns - GeneratorOwnNs(generators)) /
         1000.0 / static_cast<double>(records);
}

/// The generator's own CPU per record (the part SutCpuUsPerRecord takes
/// out), in microseconds.
inline double GeneratorCpuUsPerRecord(
    const std::vector<GeneratorCpu>& generators, std::uint64_t records) {
  if (records == 0) return 0.0;
  return static_cast<double>(GeneratorOwnNs(generators)) / 1000.0 /
         static_cast<double>(records);
}

/// One traced interval. `parent` indexes the enclosing span on the same
/// thread (-1 for a root); `id` is shared by the spans of one unit of
/// work (the cycle timestamp for cycle spans, the batch number for
/// ingest spans).
struct Span {
  std::uint16_t name = 0;
  std::uint16_t thread = 0;
  std::int32_t parent = -1;
  std::int64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< thread CPU consumed inside the span
};

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may overlap; their union is subtracted, and
/// only the part inside the parent counts).
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

/// Least-squares slope of y over x (units of y per unit of x); 0 for
/// fewer than two points. Used to flag a growing ingest backlog.
inline double Slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
