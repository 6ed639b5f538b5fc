// Self-test of the benchmark's own arithmetic (stats.h): percentile
// selection, span self time and the CPU accounting that takes the load
// generator's work out of cpu_us_per_rec. Run it with
//   python3 perfbench/run.py --selftest
// Exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void PercentileSelection() {
  using perfbench::SelectPercentile;
  using perfbench::SupportedPercentile;
  // p99 needs 10 samples beyond it: 1000 samples, not 999.
  Check(SupportedPercentile(1000, 99) == 99, "1000 samples support p99");
  Check(SupportedPercentile(999, 99) == 90, "999 samples fall back to p90");
  Check(SupportedPercentile(100, 99) == 90, "100 samples support p90");
  Check(SupportedPercentile(99, 99) == 50, "99 samples fall back to p50");
  Check(SupportedPercentile(20, 50) == 50, "20 samples support p50");
  Check(SupportedPercentile(19, 50) == 0, "19 samples support nothing");
  Check(SupportedPercentile(10000, 99.9) == 99.9, "10000 support p99.9");
  Check(SupportedPercentile(10000, 99) == 99, "capped at the request");

  // 1..1000 shuffled: p50 is 500, p99 is 990 (nearest rank).
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  perfbench::Percentile p = SelectPercentile(v, 99);
  Check(p.pct == 99 && p.value == 990 && p.samples == 1000, "p99 of 1..1000");
  p = SelectPercentile(v, 50);
  Check(p.pct == 50 && p.value == 500, "p50 of 1..1000");
  std::vector<double> few = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                             11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                             21, 22, 23, 24, 25, 26, 27, 28, 29, 30};
  p = SelectPercentile(few, 99);
  Check(p.pct == 50 && p.value == 15 && p.samples == 30,
        "30 samples report p50 for a p99 request");
  std::vector<double> none;
  p = SelectPercentile(none, 99);
  Check(p.pct == 0 && p.value == 0 && p.samples == 0, "no samples");
}

void SelfTime() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and a grandchild [12,18) inside the first child; a child that
  // runs past its parent's end counts only inside it.
  std::vector<Span> s(5);
  s[0] = Span{0, 0, -1, 1, 0, 100, 0};
  s[1] = Span{1, 0, 0, 1, 10, 30, 0};
  s[2] = Span{1, 0, 0, 1, 20, 50, 0};
  s[3] = Span{2, 0, 1, 1, 12, 18, 0};
  s[4] = Span{3, 1, -1, 2, 90, 130, 0};
  std::vector<Span> with_overrun = s;
  with_overrun.push_back(Span{1, 0, 0, 1, 95, 110, 0});
  const std::vector<std::int64_t> self = perfbench::SelfTimes(s);
  Check(self[0] == 60, "root self time = 100 - union(10..50)");
  Check(self[1] == 14, "child self time = 20 - grandchild 6");
  Check(self[2] == 30, "second child has no children");
  Check(self[3] == 6, "leaf self time is its duration");
  Check(self[4] == 40, "other thread's root is independent");
  const std::vector<std::int64_t> over = perfbench::SelfTimes(with_overrun);
  Check(over[0] == 55, "child overrunning the parent is clipped");
}

void CpuAccounting() {
  using perfbench::GeneratorCpu;
  // Process CPU 10 ms over 1000 records. Generator thread A spent 3 ms,
  // 1 ms of it inside calls into the system; thread B 2 ms, all inside.
  // The generator's own CPU is 2 ms, so the system spent 8 ms: 8 us/rec.
  const std::vector<GeneratorCpu> gens = {{3000000, 1000000},
                                          {2000000, 2000000}};
  Check(Near(perfbench::SutCpuUsPerRecord(10000000, gens, 1000), 8.0),
        "system CPU excludes the generator's own work");
  Check(Near(perfbench::GeneratorCpuUsPerRecord(gens, 1000), 2.0),
        "generator CPU per record");
  // A call still open at a phase boundary can charge a thread more
  // in-call CPU than its total; that thread contributes zero, not less.
  const std::vector<GeneratorCpu> skew = {{1000000, 1500000}};
  Check(Near(perfbench::SutCpuUsPerRecord(4000000, skew, 1000), 4.0),
        "own CPU is never negative");
  Check(perfbench::SutCpuUsPerRecord(1000, gens, 0) == 0.0,
        "no records, no rate");
}

void BacklogSlope() {
  const std::vector<double> t = {0, 1, 2, 3, 4};
  Check(Near(perfbench::Slope(t, {5, 5, 5, 5, 5}), 0.0), "flat backlog");
  Check(Near(perfbench::Slope(t, {0, 10, 20, 30, 40}), 10.0),
        "growing backlog");
}

}  // namespace

int main() {
  PercentileSelection();
  SelfTime();
  CpuAccounting();
  BacklogSlope();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
