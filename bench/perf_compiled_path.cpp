// PERF — machine-readable benchmark of the compiled-automaton fast path
// (DESIGN.md §13) against the interpreted cached aggregate path.
//
// For each SF (n, h) configuration this times, on AggregateEngine with one
// lane:
//   * interpreted_cached — the production protocol object (SourceFilter)
//     through its bulk display/update hooks, i.e. the pre-compiled
//     production round loop;
//   * compiled — the mirrored CompiledPopulation through its bulk hooks:
//     closed-form display and update rules over state ids, no virtual
//     dispatch in the hot loop.  The engine's compiled toggle is left off:
//     a bare population runs its rules either way.
//
// The sf rows time calibrated slices of rounds from round 1.  The
// full-horizon rows time one whole run() — planned horizon, opinions
// counted every round: sf_full at perfbench's sf_h64_compiled
// configuration, where boosting dominates and the first rounds say
// little, and sf_grid at a THM4-N grid cell (s1 = 1), whose long
// listening phase spreads the balances over many states.  Every row is
// timed over kWindows windows, each one interpreted and one compiled
// measurement in alternating order, and reports the median of each path's
// rounds/s and the median of the per-window ratios: one window of a
// fraction of a second swings by tens of percent on a shared host.
//
// Before any timing, the harness replays every smoke-sized configuration
// through BOTH paths and requires identical replay digests and final
// opinions — the in-binary half of the bit-identity contract that
// tests/test_compiled_path.cpp pins under ctest.  A mismatch fails the run
// before a single number is printed.
//
// Output is JSON (schema documented in EXPERIMENTS.md) written to --out
// (default BENCH_compiled_path.json).  `--smoke` shrinks sizes for the CI
// gate, whose tolerance check compares the smoke compiled/interpreted
// throughput ratios against the committed full-run JSON.  hardware_threads
// is recorded for honest reporting; all rows here are single-lane, so the
// ratios are core-count-independent by construction.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>  // hardware_concurrency only; pooling lives in
                   // common/thread_pool (lint: bench is allowlisted)
#include <vector>

#include "noisypull/noisypull.hpp"

namespace {

using namespace noisypull;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Config {
  const char* row;       // CI floor key: "sf" | "sf_full" | "sf_grid"
  const char* protocol;  // "sf"
  std::uint64_t n;
  std::uint64_t h;
  std::uint64_t s1 = 1;
  // Full-horizon rows time one whole run() (planned SF horizon, opinions
  // counted every round) per path instead of calibrated slices of steps.
  bool full_horizon = false;
};

// SF runs the binary channel at δ = 0.2 (the perf_round_kernel operating
// point and the THM4-N grid's noise level).
constexpr double kSfDelta = 0.2;

// Interpreted production protocol + its compiled mirror, built with the
// same agent layout so trajectories are comparable draw for draw.
struct Setup {
  std::unique_ptr<PullProtocol> interpreted;
  std::unique_ptr<CompiledPopulation> compiled;
  NoiseMatrix noise;
  std::uint64_t horizon;  // the planned SF horizon
};

Setup make_setup(const Config& cfg) {
  NOISYPULL_CHECK(std::strcmp(cfg.protocol, "sf") == 0,
                  "unknown bench protocol");
  const PopulationConfig pop{.n = cfg.n, .s1 = cfg.s1, .s0 = 0};
  // Full-horizon rows use the default c1 of the CLI and perfbench.
  const SfSchedule schedule =
      cfg.full_horizon
          ? make_sf_schedule(pop, Holdings{cfg.h}, Delta{kSfDelta})
          : make_sf_schedule(pop, Holdings{cfg.h}, Delta{kSfDelta}, C1{2.0});
  return Setup{.interpreted = std::make_unique<SourceFilter>(pop, schedule),
               .compiled = make_compiled_sf(pop, schedule),
               .noise = NoiseMatrix::uniform(2, kSfDelta),
               .horizon = schedule.total_rounds()};
}

// All timing runs share one named seed: throughput, not the stream
// identity, is what these measurements compare.
constexpr std::uint64_t kTimingSeed = 1;

enum class Path {
  Interpreted,  // production protocol (SourceFilter) through its hooks
  Compiled,     // CompiledPopulation: closed-form rules
};

// Interleaved timing windows per row; the committed figures are medians.
constexpr std::size_t kWindows = 5;

PullProtocol& pick_protocol(Setup& s, Path path) {
  return path == Path::Interpreted ? *s.interpreted : *s.compiled;
}

double time_rounds(const Config& cfg, Path path, std::uint64_t rounds) {
  Setup s = make_setup(cfg);
  PullProtocol& protocol = pick_protocol(s, path);
  AggregateEngine engine;
  Rng rng(kTimingSeed);
  const std::uint64_t horizon = s.horizon;
  const auto round_at = [horizon](std::uint64_t r) { return r % horizon; };
  engine.step(protocol, s.noise, Holdings{cfg.h}, round_at(0), rng);  // warm-up
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.step(protocol, s.noise, Holdings{cfg.h}, round_at(r + 1), rng);
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(rounds) / (elapsed > 0.0 ? elapsed : 1e-9);
}

struct RunOut {
  std::uint64_t digest = 0;
  std::vector<Opinion> opinions;
  bool operator==(const RunOut&) const = default;
};

RunOut replay(const Config& cfg, Path path, std::uint64_t rounds) {
  Setup s = make_setup(cfg);
  PullProtocol& protocol = pick_protocol(s, path);
  AggregateEngine engine;
  Rng rng(kTimingSeed);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.step(protocol, s.noise, Holdings{cfg.h}, r % s.horizon, rng);
  }
  RunOut out{.digest = engine.replay_digest(), .opinions = {}};
  out.opinions.reserve(protocol.num_agents());
  for (std::uint64_t i = 0; i < protocol.num_agents(); ++i) {
    out.opinions.push_back(protocol.opinion(i));
  }
  return out;
}

// The in-binary bit-identity gate: the production interpreted protocol
// and the compiled population must agree on replay digest AND final
// opinions for every configuration given.  Runs before any timing so a
// broken fast path can never publish throughput numbers.
bool check_identity(std::span<const Config> configs, std::uint64_t rounds) {
  bool ok = true;
  for (const Config& cfg : configs) {
    const RunOut reference = replay(cfg, Path::Interpreted, rounds);
    const RunOut got = replay(cfg, Path::Compiled, rounds);
    if (got == reference) continue;
    ok = false;
    std::fprintf(stderr,
                 "identity violation: protocol=%s n=%llu h=%llu "
                 "(digest %016llx vs %016llx, opinions %s)\n",
                 cfg.protocol, static_cast<unsigned long long>(cfg.n),
                 static_cast<unsigned long long>(cfg.h),
                 static_cast<unsigned long long>(got.digest),
                 static_cast<unsigned long long>(reference.digest),
                 got.opinions == reference.opinions ? "equal" : "DIFFER");
  }
  return ok;
}

struct ConfigResult {
  Config config;
  std::uint64_t rounds_timed;  // per window and path
  double interpreted_rounds_per_sec;  // median over the windows
  double compiled_rounds_per_sec;     // median over the windows
  double speedup;  // median of the windows' compiled/interpreted ratios
};

double median(std::array<double, kWindows> v) {
  std::sort(v.begin(), v.end());
  return v[kWindows / 2];
}

struct FullRun {
  double rounds_per_sec = 0.0;
  std::uint64_t digest = 0;
  RunResult result;
};

// One run() over the planned horizon, the way the CLI and the theorem
// tables run SF: the per-round opinion count included.
FullRun full_run(const Config& cfg, Path path) {
  Setup s = make_setup(cfg);
  PullProtocol& protocol = pick_protocol(s, path);
  AggregateEngine engine;
  Rng rng(kTimingSeed);
  const auto start = Clock::now();
  FullRun out;
  out.result = run(protocol, engine, s.noise, Opinion{1},
                   RunConfig{.h = cfg.h, .max_rounds = s.horizon},
                   rng);
  const double elapsed = seconds_since(start);
  out.rounds_per_sec =
      static_cast<double>(s.horizon) / (elapsed > 0.0 ? elapsed : 1e-9);
  out.digest = engine.replay_digest();
  return out;
}

// One window of one path: rounds/s of a full run or of a slice.
double time_window(const Config& cfg, Path path, std::uint64_t rounds,
                   const FullRun& reference) {
  if (!cfg.full_horizon) return time_rounds(cfg, path, rounds);
  // The row gates its own identity: every run has the same seed and
  // horizon and must agree with the first before its time means anything.
  const FullRun got = full_run(cfg, path);
  NOISYPULL_CHECK(got.digest == reference.digest &&
                      got.result.correct_at_end ==
                          reference.result.correct_at_end &&
                      got.result.first_all_correct ==
                          reference.result.first_all_correct,
                  "full-horizon row: compiled run differs from interpreted");
  return got.rounds_per_sec;
}

ConfigResult run_config(const Config& cfg, bool smoke) {
  FullRun reference;
  std::uint64_t rounds = 3;
  if (cfg.full_horizon) {
    reference = full_run(cfg, Path::Interpreted);  // also the warm-up
    rounds = make_setup(cfg).horizon;
  } else if (!smoke) {
    // Calibrate the repetition count off one interpreted round so both
    // paths of a config are timed over the same number of rounds.
    const double probe = time_rounds(cfg, Path::Interpreted, 1);
    const double per_round = 1.0 / probe;
    const double target_seconds = 0.5;
    double r = target_seconds / (per_round > 0.0 ? per_round : 1e-9);
    if (r < 3.0) r = 3.0;
    if (r > 200.0) r = 200.0;
    rounds = static_cast<std::uint64_t>(r);
  }
  std::array<double, kWindows> interpreted{};
  std::array<double, kWindows> compiled{};
  std::array<double, kWindows> ratio{};
  for (std::size_t w = 0; w < kWindows; ++w) {
    // Alternate which path goes first, so neither always inherits the
    // other's cache and frequency state.
    if (w % 2 == 0) {
      interpreted[w] = time_window(cfg, Path::Interpreted, rounds, reference);
      compiled[w] = time_window(cfg, Path::Compiled, rounds, reference);
    } else {
      compiled[w] = time_window(cfg, Path::Compiled, rounds, reference);
      interpreted[w] = time_window(cfg, Path::Interpreted, rounds, reference);
    }
    ratio[w] = compiled[w] / interpreted[w];
  }
  return ConfigResult{.config = cfg,
                      .rounds_timed = rounds,
                      .interpreted_rounds_per_sec = median(interpreted),
                      .compiled_rounds_per_sec = median(compiled),
                      .speedup = median(ratio)};
}

void emit_json(std::FILE* out, bool smoke,
               std::span<const ConfigResult> results) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"compiled_path\",\n");
  std::fprintf(out, "  \"schema_version\": 3,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  // All rows are single-lane AggregateEngine, so the compiled/interpreted
  // ratio does not depend on the core count; the field is recorded anyway
  // for honest provenance of the absolute numbers.
  std::fprintf(out, "  \"threads_per_row\": 1,\n");
  std::fprintf(out, "  \"windows_per_row\": %zu,\n", kWindows);
  std::fprintf(out, "  \"identity_checked\": true,\n");
  std::fprintf(out, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out, "    {\n");
    std::fprintf(out, "      \"row\": \"%s\",\n", r.config.row);
    std::fprintf(out, "      \"protocol\": \"%s\",\n", r.config.protocol);
    std::fprintf(out, "      \"n\": %llu,\n",
                 static_cast<unsigned long long>(r.config.n));
    std::fprintf(out, "      \"h\": %llu,\n",
                 static_cast<unsigned long long>(r.config.h));
    std::fprintf(out, "      \"s1\": %llu,\n",
                 static_cast<unsigned long long>(r.config.s1));
    std::fprintf(out, "      \"full_horizon\": %s,\n",
                 r.config.full_horizon ? "true" : "false");
    std::fprintf(out, "      \"rounds_timed\": %llu,\n",
                 static_cast<unsigned long long>(r.rounds_timed));
    std::fprintf(out,
                 "      \"interpreted_cached\": { \"rounds_per_sec\": %.4f "
                 "},\n",
                 r.interpreted_rounds_per_sec);
    std::fprintf(out, "      \"compiled\": { \"rounds_per_sec\": %.4f },\n",
                 r.compiled_rounds_per_sec);
    std::fprintf(out, "      \"speedup_compiled_vs_interpreted\": %.4f\n",
                 r.speedup);
    std::fprintf(out, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_compiled_path.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_compiled_path [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  // Identity gate at smoke sizes, in every mode (cheap: a few seconds).
  const Config identity_configs[] = {
      {.row = "sf", .protocol = "sf", .n = 20000, .h = 4},
  };
  // perfbench's sf_h64_compiled configuration, over its whole horizon
  // (1173 rounds): boosting dominates, which the first-rounds rows never
  // reach.  Cheap enough (about a second per path) to run in --smoke too.
  const Config full_sf{.row = "sf_full", .protocol = "sf", .n = 10000,
                       .h = 64, .s1 = 100, .full_horizon = true};
  // A THM4-N grid cell (δ = 0.2, s1 = 1, full horizon): the s = 1
  // listening phase spreads balances over hundreds of rounds, so the
  // compiled path keeps missing there.  Its ratio is the grid's.
  const Config grid_sf{.row = "sf_grid", .protocol = "sf", .n = 4000,
                       .h = 63, .s1 = 1, .full_horizon = true};
  std::printf("perf_compiled_path: identity gate (SF x 2 paths)\n");
  if (!check_identity(identity_configs, /*rounds=*/48)) {
    std::fprintf(stderr, "perf_compiled_path: identity gate FAILED\n");
    return 1;
  }
  std::printf("perf_compiled_path: identity gate passed\n");

  std::vector<Config> configs;
  if (smoke) {
    configs.assign(std::begin(identity_configs), std::end(identity_configs));
  } else {
    configs.push_back(
        Config{.row = "sf", .protocol = "sf", .n = 1000000, .h = 4});
    configs.push_back(
        Config{.row = "sf", .protocol = "sf", .n = 100000, .h = 16});
  }
  configs.push_back(full_sf);
  configs.push_back(grid_sf);

  std::vector<ConfigResult> results;
  for (const Config& cfg : configs) {
    std::printf("perf_compiled_path: %s n=%llu h=%llu ...\n", cfg.protocol,
                static_cast<unsigned long long>(cfg.n),
                static_cast<unsigned long long>(cfg.h));
    results.push_back(run_config(cfg, smoke));
    const auto& r = results.back();
    std::printf("  interpreted cached: %.2f rounds/s (median of %zu)\n",
                r.interpreted_rounds_per_sec, kWindows);
    std::printf("  compiled:           %.2f rounds/s (median ratio %.2fx)\n",
                r.compiled_rounds_per_sec, r.speedup);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_compiled_path: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  emit_json(out, smoke, results);
  std::fclose(out);
  std::printf("perf_compiled_path: wrote %s\n", out_path.c_str());
  return 0;
}
