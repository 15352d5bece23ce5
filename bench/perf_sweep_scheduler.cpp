// PERF-SWEEP — machine-readable benchmark of the experiment scheduler
// (analysis/scheduler.hpp) against the legacy per-cell repetition loop.
//
// One SF grid (n × δ) is executed four ways:
//   * legacy_per_cell    — the pre-scheduler pattern: one run_experiment()
//                          call per cell at the same worker count, a full
//                          barrier between cells;
//   * scheduler_equal    — the global (cell × repetition) queue with early
//                          stopping disabled, i.e. exactly the same set of
//                          repetitions.  The bench asserts the statistics
//                          are bit-identical to the per-cell loop (same
//                          substreams, same finalize code path) — this is
//                          the "equal statistics" comparison;
//   * scheduler_adaptive — the same queue with the Wilson-CI stop rule:
//                          strictly fewer repetitions wherever the interval
//                          tightens early, deterministically;
//   * cache cold/warm    — scheduler_adaptive through a fresh cache
//                          directory, then through the populated one: the
//                          warm pass replays outcomes instead of simulating
//                          and must reproduce identical statistics.
//
// Output is JSON (schema in EXPERIMENTS.md) written to --out (default
// BENCH_sweep_scheduler.json); `--smoke` shrinks the grid for the CI gate,
// `--threads` sets worker lanes.  hardware_threads and the honest
// lane_scaling_measured caveat are recorded as in perf_round_kernel: on a
// 1-core runner the queue cannot beat the barrier loop at equal statistics
// (both are compute-bound on one lane) — the adaptive and cache rows carry
// the wall-clock win there; multi-core runners additionally see the
// barrier-elimination win.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>  // hardware_concurrency only; pooling lives in
                   // common/thread_pool (lint: bench is allowlisted)
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace noisypull;
using namespace noisypull::bench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct GridPoint {
  std::uint64_t n;
  double delta;
};

bool same_stats(const CellStats& a, const CellStats& b) {
  return a.reps == b.reps && a.successes == b.successes &&
         a.stable_successes == b.stable_successes &&
         a.success_rate == b.success_rate &&
         a.mean_convergence_round == b.mean_convergence_round &&
         a.convergence_stddev == b.convergence_stddev &&
         a.mean_rounds_run == b.mean_rounds_run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sweep_scheduler.json";
  unsigned threads = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--threads" && i + 1 < argc) {
      threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: perf_sweep_scheduler [--smoke] [--out PATH] "
                   "[--threads N]\n");
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    std::printf(
        "perf_sweep_scheduler: WARNING: 1 hardware thread — the equal-"
        "statistics comparison measures queue overhead, not parallel "
        "speedup (lane_scaling_measured=false)\n");
  }

  std::vector<std::uint64_t> ns;
  std::vector<double> deltas;
  std::uint64_t reps = 0;
  if (smoke) {
    ns = {500, 1000};
    deltas = {0.2};
    reps = 8;
  } else {
    ns = {500, 1000, 2000, 4000};
    deltas = {0.1, 0.2, 0.3};
    reps = 48;
  }
  const StopRule fixed{.max_reps = reps, .min_reps = reps,
                       .ci_halfwidth = 0.0};
  const StopRule adaptive{.max_reps = reps,
                          .min_reps = smoke ? 4ULL : 8ULL,
                          .ci_halfwidth = smoke ? 0.15 : 0.10};

  std::vector<GridPoint> grid;
  std::vector<ExperimentCell> cells;
  for (std::uint64_t n : ns) {
    for (double delta : deltas) {
      grid.push_back({n, delta});
      const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};
      cells.push_back(ExperimentCell{
          .label =
              "n=" + std::to_string(n) + " delta=" + std::to_string(delta),
          .make_protocol = sf_factory(pop, Holdings{n}, Delta{delta}),
          .noise = NoiseMatrix::uniform(2, delta),
          .correct = pop.correct_opinion(),
          .cfg = RunConfig{.h = n},
          .seed = 9000 + n + static_cast<std::uint64_t>(delta * 100),
          .protocol_digest = sf_digest(pop, Holdings{n}, Delta{delta})});
    }
  }
  std::printf("perf_sweep_scheduler: %zu cells x %llu reps, threads=%u\n",
              cells.size(), static_cast<unsigned long long>(reps),
              threads == 0 ? hw : threads);

  // --- legacy per-cell barrier loop (the seed pattern) -------------------
  const SchedulerOptions equal_opts{.threads = threads, .stop = fixed};
  auto start = Clock::now();
  std::vector<CellStats> legacy;
  for (const ExperimentCell& cell : cells) {
    legacy.push_back(run_experiment({cell}, equal_opts)[0]);
  }
  const double legacy_seconds = seconds_since(start);
  std::printf("  legacy_per_cell:    %.3fs\n", legacy_seconds);

  // --- scheduler, early stopping off: equal statistics -------------------
  start = Clock::now();
  const auto equal = run_experiment(cells, equal_opts);
  const double equal_seconds = seconds_since(start);
  std::printf("  scheduler_equal:    %.3fs (%.2fx)\n", equal_seconds,
              legacy_seconds / equal_seconds);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!same_stats(legacy[i], equal[i])) {
      std::fprintf(stderr,
                   "perf_sweep_scheduler: FAILED — cell '%s' statistics "
                   "differ between the legacy loop and the scheduler\n",
                   cells[i].label.c_str());
      return 1;
    }
  }

  // --- scheduler, adaptive early stopping --------------------------------
  SchedulerOptions adaptive_opts{.threads = threads, .stop = adaptive};
  start = Clock::now();
  const auto stopped = run_experiment(cells, adaptive_opts);
  const double adaptive_seconds = seconds_since(start);
  std::uint64_t full_reps = 0, adaptive_reps = 0, stopped_cells = 0;
  for (const auto& st : stopped) {
    full_reps += reps;
    adaptive_reps += st.reps;
    if (st.early_stopped) ++stopped_cells;
  }
  std::printf(
      "  scheduler_adaptive: %.3fs (%.2fx), %llu/%llu reps, %llu cells "
      "stopped early\n",
      adaptive_seconds, legacy_seconds / adaptive_seconds,
      static_cast<unsigned long long>(adaptive_reps),
      static_cast<unsigned long long>(full_reps),
      static_cast<unsigned long long>(stopped_cells));

  // --- content-addressed cache: cold write, then warm replay -------------
  const std::filesystem::path cache_dir =
      std::filesystem::path(out_path).parent_path() / "sweep_scheduler_cache";
  std::filesystem::remove_all(cache_dir);
  SchedulerOptions cache_opts = adaptive_opts;
  cache_opts.cache_dir = cache_dir.string();
  start = Clock::now();
  const auto cold = run_experiment(cells, cache_opts);
  const double cold_seconds = seconds_since(start);
  start = Clock::now();
  const auto warm = run_experiment(cells, cache_opts);
  const double warm_seconds = seconds_since(start);
  std::printf("  cache cold/warm:    %.3fs / %.3fs\n", cold_seconds,
              warm_seconds);
  std::uint64_t warm_computed = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    warm_computed += warm[i].reps_computed;
    if (!same_stats(stopped[i], cold[i]) || !same_stats(stopped[i], warm[i])) {
      std::fprintf(stderr,
                   "perf_sweep_scheduler: FAILED — cell '%s' statistics "
                   "differ across cache settings\n",
                   cells[i].label.c_str());
      return 1;
    }
  }
  if (warm_computed != 0) {
    std::fprintf(stderr,
                 "perf_sweep_scheduler: FAILED — warm cache pass simulated "
                 "%llu repetitions (expected 0)\n",
                 static_cast<unsigned long long>(warm_computed));
    return 1;
  }
  std::filesystem::remove_all(cache_dir);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_sweep_scheduler: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"sweep_scheduler\",\n");
  std::fprintf(out, "  \"schema_version\": 1,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(out, "  \"lane_scaling_measured\": %s,\n",
               hw > 1 ? "true" : "false");
  if (hw <= 1) {
    std::fprintf(out,
                 "  \"caveat\": \"single hardware thread: scheduler_equal "
                 "measures queue overhead, not barrier elimination; the "
                 "adaptive and warm-cache speedups are the meaningful rows "
                 "on this machine\",\n");
  }
  std::fprintf(out, "  \"threads\": %u,\n", threads == 0 ? hw : threads);
  std::fprintf(out, "  \"cells\": %zu,\n", cells.size());
  std::fprintf(out, "  \"reps_per_cell\": %llu,\n",
               static_cast<unsigned long long>(reps));
  std::fprintf(out, "  \"ci_halfwidth\": %.4f,\n", adaptive.ci_halfwidth);
  std::fprintf(out, "  \"legacy_per_cell\": { \"seconds\": %.4f },\n",
               legacy_seconds);
  std::fprintf(out,
               "  \"scheduler_equal\": { \"seconds\": %.4f, "
               "\"speedup_vs_legacy\": %.4f, \"stats_identical\": true },\n",
               equal_seconds, legacy_seconds / equal_seconds);
  std::fprintf(out,
               "  \"scheduler_adaptive\": { \"seconds\": %.4f, "
               "\"speedup_vs_legacy\": %.4f, \"reps\": %llu, "
               "\"reps_full\": %llu, \"cells_stopped_early\": %llu },\n",
               adaptive_seconds, legacy_seconds / adaptive_seconds,
               static_cast<unsigned long long>(adaptive_reps),
               static_cast<unsigned long long>(full_reps),
               static_cast<unsigned long long>(stopped_cells));
  std::fprintf(out,
               "  \"cache\": { \"cold_seconds\": %.4f, \"warm_seconds\": "
               "%.4f, \"warm_speedup_vs_legacy\": %.4f, "
               "\"warm_reps_computed\": 0, \"stats_identical\": true }\n",
               cold_seconds, warm_seconds, legacy_seconds / warm_seconds);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("perf_sweep_scheduler: wrote %s\n", out_path.c_str());
  return 0;
}
