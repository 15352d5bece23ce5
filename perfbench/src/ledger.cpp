#include "ledger.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double midmean(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("midmean of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double tail_percentile(std::size_t samples) {
  static constexpr std::array<double, 5> kLadder = {50.0, 90.0, 99.0, 99.9,
                                                    99.99};
  double best = 0.0;
  for (const double p : kLadder) {
    // Observations strictly beyond the p-th percentile: N·(1 − p/100).
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      best = p;
    }
  }
  return best;
}

Quartiles quartiles(std::vector<double> values) {
  const std::size_t ld = values.size();
  if (ld < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method='exclusive'): m = N + 1, cut i at i·m/4,
  // clamped to [1, N − 1], interpolated in exact integer steps.
  std::array<double, 3> cut{};
  const std::size_t m = ld + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double spread(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  return (q.q3 - q.q1) / median(values);
}

double self_time(const std::vector<Span>& spans, int id) {
  const Span& parent = spans.at(static_cast<std::size_t>(id));
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans) {
    if (s.parent != id) continue;
    const double a = std::max(s.start, parent.start);
    const double b = std::min(s.end, parent.end);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = parent.start;
  for (const auto& [a, b] : kids) {
    const double from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return parent.duration() - covered;
}

double child_sum(const std::vector<Span>& spans, int id) {
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.parent == id) sum += s.duration();
  }
  return sum;
}

double coverage(const std::vector<Span>& spans, int id, unsigned lanes) {
  const double total = spans.at(static_cast<std::size_t>(id)).duration() *
                       static_cast<double>(lanes);
  return total > 0.0 ? child_sum(spans, id) / total : 0.0;
}

}  // namespace perfbench
