// Pure helpers of the benchmark: order statistics, the tail-percentile rule,
// run-to-run spread, and the in-memory span trace with its self-time and
// coverage arithmetic.  Nothing here touches the library; the benchmark's
// own tests (tests/test_perfbench.cpp) pin every function.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample: the
// value at rank q·(N−1), interpolated between neighbours.  Requires a
// non-empty sample.
double quantile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Mean of the middle half of the sample (the interquartile mean): for
// microsecond-scale timings that switch between a fast and a slow machine
// state, it averages the states in proportion where the median would pick
// one of them.  Requires a non-empty sample.
double midmean(std::vector<double> values);

// Highest percentile of the ladder {50, 90, 99, 99.9, 99.99} that leaves at
// least ten of `samples` observations beyond it, or 0 when even the median
// does not (fewer than 20 samples).
double tail_percentile(std::size_t samples);

// First and third quartile by Python's statistics.quantiles(values, n=4)
// (the default 'exclusive' method), so spreads computed here match the
// ones the acceptance rule computes.  Requires at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

// Run-to-run spread: (q3 − q1) / median by the quartiles above.
double spread(const std::vector<double>& values);

// One traced interval.  parent is the index of the enclosing span in the
// trace, or -1 for a root.  Times are seconds since the trace started.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;

  double duration() const noexcept { return end - start; }
};

// Spans kept in memory and written out once the run ends.  add() is
// thread-safe (the sweep records repetition spans from its workers).
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  int add(std::string name, double start, double end, int parent) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Reserves a span that is closed later with close(); lets children name
  // their parent before the parent's end is known.
  int open(std::string name, int parent) {
    const double t = now();
    return add(std::move(name), t, t, parent);
  }
  void close(int id) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  // Copy of the spans recorded so far.
  std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Duration of span `id` minus the part of its interval covered by the union
// of its direct children (clipped to the parent).
double self_time(const std::vector<Span>& spans, int id);

// Σ durations of the direct children of `id`.
double child_sum(const std::vector<Span>& spans, int id);

// Σ direct-child durations ÷ (lanes × duration of `id`): the share of the
// traced total the child spans account for.  lanes > 1 when children run
// concurrently on that many workers (the sweep's repetition spans).
double coverage(const std::vector<Span>& spans, int id, unsigned lanes = 1);

}  // namespace perfbench
