// PERF — machine-readable benchmark of the block-parallel round kernel
// (DESIGN.md §9).
//
// For each (engine, n, h) configuration this times:
//   * legacy_serial — a faithful replica of the pre-kernel AggregateEngine
//     inner loop: one conditional-binomial multinomial decomposition per
//     agent per round, no sampler cache, strictly serial (for the exact
//     engine the replica is the serial kernel itself, whose per-agent work
//     is unchanged);
//   * the current kernel at several lane counts, each reported as
//     rounds/sec and as a speedup over the legacy serial baseline;
//   * for aggregate configs, one compiled-fast-path row (DESIGN.md §13):
//     SF as its CompiledPopulation under AggregateEngine, one lane —
//     the focused compiled-vs-interpreted comparison lives in
//     perf_compiled_path, this row just keeps the kernel bench's speedup
//     ladder complete (legacy → kernel → compiled) in one JSON.
//
// Output is JSON (schema documented in EXPERIMENTS.md) written to --out
// (default BENCH_round_kernel.json in the working directory), so CI can
// archive it and trend lines can be diffed.  `--smoke` shrinks sizes and
// repetitions to seconds for the CI gate.  hardware_threads is recorded
// because lane counts beyond the physical core count cannot speed anything
// up — on a 1-core runner every threads>1 row measures pure overhead.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
  const char* engine;  // "aggregate" | "exact"
  std::uint64_t n;
  std::uint64_t h;
};

struct Variant {
  unsigned threads;
  double rounds_per_sec;
};

struct ConfigResult {
  Config config;
  std::uint64_t rounds_timed;
  double legacy_rounds_per_sec;
  std::vector<Variant> variants;
  double compiled_rounds_per_sec = 0.0;  // 0: no compiled path (exact engine)
};

SourceFilter make_protocol(const Config& cfg) {
  const PopulationConfig pop{.n = cfg.n, .s1 = 1, .s0 = 0};
  return SourceFilter(pop, Holdings{cfg.h}, Delta{/*delta=*/0.2},
                      C1{/*c1=*/2.0});
}

// The seed AggregateEngine round: per-round q, then one multinomial
// decomposition per agent drawn from the master stream.
void legacy_aggregate_round(SourceFilter& protocol, const NoiseMatrix& noise,
                            std::uint64_t h, std::uint64_t round, Rng& rng) {
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  std::vector<std::uint64_t> c(d, 0);
  for (std::uint64_t i = 0; i < n; ++i) ++c[protocol.display(i, round)];
  const Matrix channel = noise.matrix();
  std::vector<double> q(d, 0.0);
  for (std::size_t to = 0; to < d; ++to) {
    double w = 0.0;
    for (std::size_t from = 0; from < d; ++from) {
      w += static_cast<double>(c[from]) * channel(from, to);
    }
    q[to] = w;
  }
  SymbolCounts obs(d);
  for (std::uint64_t i = 0; i < n; ++i) {
    obs.clear();
    sample_multinomial(rng, h, q, std::span<std::uint64_t>(obs.c.data(), d));
    protocol.update(i, round, obs, rng);
  }
}

// The seed ExactEngine round (h uniform pulls per agent, serial).
void legacy_exact_round(SourceFilter& protocol, const NoiseMatrix& noise,
                        std::uint64_t h, std::uint64_t round, Rng& rng) {
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  std::vector<Symbol> displays(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    displays[i] = protocol.display(i, round);
  }
  SymbolCounts obs(d);
  for (std::uint64_t i = 0; i < n; ++i) {
    obs.clear();
    for (std::uint64_t k = 0; k < h; ++k) {
      ++obs[noise.corrupt(displays[rng.next_below(n)], rng)];
    }
    protocol.update(i, round, obs, rng);
  }
}

// All timing runs share one named seed: throughput, not the
// stream identity, is what these measurements compare.
constexpr std::uint64_t kTimingSeed = 1;

// The compiled fast path runs the SF population as a CompiledPopulation
// (same schedule as make_protocol, so the horizon and per-round work match)
// under AggregateEngine: single lane.
double time_compiled_rounds(const Config& cfg, std::uint64_t rounds) {
  const PopulationConfig pop{.n = cfg.n, .s1 = 1, .s0 = 0};
  const SfSchedule schedule =
      make_sf_schedule(pop, Holdings{cfg.h}, Delta{0.2}, C1{2.0});
  const auto protocol = make_compiled_sf(pop, schedule);
  const auto noise = NoiseMatrix::uniform(2, 0.2);
  AggregateEngine engine;
  Rng rng(kTimingSeed);
  const std::uint64_t horizon = protocol->planned_rounds();
  engine.step(*protocol, noise, Holdings{cfg.h}, 0, rng);  // warm-up (untimed)
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.step(*protocol, noise, Holdings{cfg.h}, (r + 1) % horizon, rng);
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(rounds) / (elapsed > 0.0 ? elapsed : 1e-9);
}

template <typename RoundFn>
double time_rounds(const Config& cfg, std::uint64_t rounds, RoundFn&& fn) {
  SourceFilter protocol = make_protocol(cfg);
  const auto noise = NoiseMatrix::uniform(2, 0.2);
  Rng rng(kTimingSeed);
  const std::uint64_t horizon = protocol.planned_rounds();
  fn(protocol, noise, 0 % horizon, rng);  // warm-up round (untimed)
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    fn(protocol, noise, (r + 1) % horizon, rng);
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(rounds) / (elapsed > 0.0 ? elapsed : 1e-9);
}

ConfigResult run_config(const Config& cfg, bool smoke,
                        std::span<const unsigned> lane_counts) {
  const bool aggregate = std::strcmp(cfg.engine, "aggregate") == 0;

  const auto legacy = [&](SourceFilter& p, const NoiseMatrix& nm,
                          std::uint64_t round, Rng& rng) {
    if (aggregate) {
      legacy_aggregate_round(p, nm, cfg.h, round, rng);
    } else {
      legacy_exact_round(p, nm, cfg.h, round, rng);
    }
  };

  // Calibrate the repetition count off one legacy round so every variant of
  // a config is timed over the same number of rounds.
  std::uint64_t rounds = 3;
  if (!smoke) {
    const double probe = time_rounds(cfg, 1, legacy);
    const double per_round = 1.0 / probe;
    const double target_seconds = 0.5;
    double r = target_seconds / (per_round > 0.0 ? per_round : 1e-9);
    if (r < 3.0) r = 3.0;
    if (r > 200.0) r = 200.0;
    rounds = static_cast<std::uint64_t>(r);
  }

  ConfigResult result{.config = cfg,
                      .rounds_timed = rounds,
                      .legacy_rounds_per_sec = time_rounds(cfg, rounds, legacy),
                      .variants = {}};

  // One engine per variant: the pool spins up once, not per round.  Note
  // the kernel side still pays its replay-digest absorption (one hash per
  // agent per round), which the legacy replica omits — the reported
  // speedups are conservative for the kernel.
  const auto kernel = [&](unsigned threads) {
    std::unique_ptr<Engine> engine;
    if (aggregate) {
      engine = std::make_unique<AggregateEngine>();
    } else {
      engine = std::make_unique<ExactEngine>();
    }
    engine->set_threads(threads);
    return time_rounds(cfg, rounds,
                       [&](SourceFilter& p, const NoiseMatrix& nm,
                           std::uint64_t round, Rng& rng) {
                         engine->step(p, nm, Holdings{cfg.h}, round, rng);
                       });
  };

  for (const unsigned t : lane_counts) {
    result.variants.push_back(
        Variant{.threads = t, .rounds_per_sec = kernel(t)});
  }
  if (aggregate) {
    result.compiled_rounds_per_sec = time_compiled_rounds(cfg, rounds);
  }
  return result;
}

void emit_json(std::FILE* out, bool smoke,
               std::span<const ConfigResult> results) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"round_kernel\",\n");
  std::fprintf(out, "  \"schema_version\": 4,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  // Honest-reporting fields: on a 1-core machine no threads>1 row can beat
  // its threads=1 sibling, so lane scaling simply was not measured — the
  // multi-lane rows quantify pool overhead, nothing else.
  std::fprintf(out, "  \"lane_scaling_measured\": %s,\n",
               hw > 1 ? "true" : "false");
  if (hw <= 1) {
    std::fprintf(out,
                 "  \"caveat\": \"single hardware thread: threads>1 rows "
                 "measure pool overhead only; lane scaling requires a "
                 "multi-core runner\",\n");
  }
  std::fprintf(out, "  \"block_size\": 4096,\n");
  std::fprintf(out, "  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out, "    {\n");
    std::fprintf(out, "      \"engine\": \"%s\",\n", r.config.engine);
    std::fprintf(out, "      \"n\": %llu,\n",
                 static_cast<unsigned long long>(r.config.n));
    std::fprintf(out, "      \"h\": %llu,\n",
                 static_cast<unsigned long long>(r.config.h));
    std::fprintf(out, "      \"rounds_timed\": %llu,\n",
                 static_cast<unsigned long long>(r.rounds_timed));
    std::fprintf(out,
                 "      \"legacy_serial\": { \"rounds_per_sec\": %.4f },\n",
                 r.legacy_rounds_per_sec);
    std::fprintf(out, "      \"variants\": [\n");
    for (std::size_t v = 0; v < r.variants.size(); ++v) {
      const auto& var = r.variants[v];
      std::fprintf(out,
                   "        { \"threads\": %u, "
                   "\"rounds_per_sec\": %.4f, "
                   "\"speedup_vs_legacy_serial\": %.4f }%s\n",
                   var.threads, var.rounds_per_sec,
                   var.rounds_per_sec / r.legacy_rounds_per_sec,
                   v + 1 < r.variants.size() ? "," : "");
    }
    std::fprintf(out, "      ]%s\n",
                 r.compiled_rounds_per_sec > 0.0 ? "," : "");
    if (r.compiled_rounds_per_sec > 0.0) {
      std::fprintf(out,
                   "      \"compiled\": { \"threads\": 1, "
                   "\"rounds_per_sec\": %.4f, "
                   "\"speedup_vs_legacy_serial\": %.4f }\n",
                   r.compiled_rounds_per_sec,
                   r.compiled_rounds_per_sec / r.legacy_rounds_per_sec);
    }
    std::fprintf(out, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
}

// Deterministic check of the observation-sampler amortization gate
// (rng/observation_cache.hpp): the sampler must pick its mode from
// (h, d, expected_draws) alone — inverse CDF only when the outcome space
// amortizes over the round's draws — and never from the `cache` argument.
// Returns false (and prints) on any violation; wired into --smoke so the CI
// perf gate fails loudly if the gate regresses.
bool check_sampler_gate() {
  const double w[2] = {0.7, 0.3};
  const std::span<const double> weights(w, 2);
  ObservationSampler s;
  struct Case {
    std::uint64_t h;
    std::uint64_t draws;
    ObservationSampler::Mode want;
  };
  const Case cases[] = {
      // h+1 = 65 outcomes over 4 draws: table build would dominate.
      {64, 4, ObservationSampler::Mode::Decomposition},
      // Same outcome space amortized over 20000 draws: inverse CDF.
      {64, 20000, ObservationSampler::Mode::InverseCdf},
      // Outcome space above kMaxOutcomes: decomposition regardless of draws.
      {ObservationSampler::kMaxOutcomes + 1, 1000000,
       ObservationSampler::Mode::Decomposition},
  };
  for (const auto& c : cases) {
    for (const bool cache : {false, true}) {
      s.reset(c.h, weights, cache, c.draws);
      if (s.mode() != c.want) {
        std::fprintf(stderr,
                     "sampler gate violation: h=%llu draws=%llu cache=%d "
                     "picked mode %d\n",
                     static_cast<unsigned long long>(c.h),
                     static_cast<unsigned long long>(c.draws),
                     cache ? 1 : 0, static_cast<int>(s.mode()));
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_round_kernel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_round_kernel [--smoke] [--out PATH]\n");
      return 2;
    }
  }

  if (smoke && !check_sampler_gate()) {
    std::fprintf(stderr, "perf_round_kernel: sampler gate check FAILED\n");
    return 1;
  }
  if (std::thread::hardware_concurrency() <= 1) {
    std::printf(
        "perf_round_kernel: WARNING: 1 hardware thread — threads>1 rows "
        "measure pool overhead only (lane_scaling_measured=false)\n");
  }

  std::vector<Config> configs;
  if (smoke) {
    configs.push_back(Config{.engine = "aggregate", .n = 20000, .h = 4});
    configs.push_back(Config{.engine = "exact", .n = 2000, .h = 8});
  } else {
    configs.push_back(Config{.engine = "aggregate", .n = 1000000, .h = 4});
    configs.push_back(Config{.engine = "aggregate", .n = 100000, .h = 64});
    configs.push_back(Config{.engine = "exact", .n = 20000, .h = 16});
  }
  const unsigned lanes_full[] = {1, 2, 4, 8};
  const unsigned lanes_smoke[] = {1, 2};
  const std::span<const unsigned> lanes =
      smoke ? std::span<const unsigned>(lanes_smoke)
            : std::span<const unsigned>(lanes_full);

  std::vector<ConfigResult> results;
  for (const auto& cfg : configs) {
    std::printf("perf_round_kernel: %s n=%llu h=%llu ...\n", cfg.engine,
                static_cast<unsigned long long>(cfg.n),
                static_cast<unsigned long long>(cfg.h));
    results.push_back(run_config(cfg, smoke, lanes));
    const auto& r = results.back();
    std::printf("  legacy serial: %.2f rounds/s\n", r.legacy_rounds_per_sec);
    for (const auto& v : r.variants) {
      std::printf("  threads=%u: %.2f rounds/s (%.2fx)\n", v.threads,
                  v.rounds_per_sec, v.rounds_per_sec / r.legacy_rounds_per_sec);
    }
    if (r.compiled_rounds_per_sec > 0.0) {
      std::printf("  compiled (1 lane): %.2f rounds/s (%.2fx)\n",
                  r.compiled_rounds_per_sec,
                  r.compiled_rounds_per_sec / r.legacy_rounds_per_sec);
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_round_kernel: cannot open %s\n",
                 out_path.c_str());
    return 1;
  }
  emit_json(out, smoke, results);
  std::fclose(out);
  std::printf("perf_round_kernel: wrote %s\n", out_path.c_str());
  return 0;
}
