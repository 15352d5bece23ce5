// noisypull_cli — run any protocol/configuration from the command line.
//
//   noisypull_cli --protocol sf --n 10000 --h 10000 --delta 0.2 --s1 1
//   noisypull_cli --protocol ssf --n 2000 --delta 0.05
//                 --corruption wrong-consensus --reps 16 --stability 50
//   noisypull_cli --protocol kary --n 2000 --sources 3,2,2,1 --delta 0.05
//   noisypull_cli --protocol push --n 4000 --delta 0.1 --h 1
//   noisypull_cli --protocol sf --n 1000 --delta 0.2 --trajectory
//
// Prints one row per repetition plus a summary; `--csv <path>` mirrors the
// rows to CSV.  Run with --help for the full flag list.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "noisypull/noisypull.hpp"

namespace {

using namespace noisypull;

struct CliOptions {
  std::string protocol = "sf";
  std::uint64_t n = 1000;
  std::uint64_t h = 0;  // 0 → n
  double delta = 0.1;
  std::uint64_t s1 = 1;
  std::uint64_t s0 = 0;
  std::vector<std::uint64_t> kary_sources;  // --sources a,b,c (kary only)
  double c1 = 2.0;
  std::uint64_t seed = 1;
  std::uint64_t reps = 8;
  std::uint64_t max_rounds = 0;       // 0 → protocol's planned horizon
  std::uint64_t stability = 0;        // extra all-correct rounds required
  std::uint64_t window = 0;           // repeated-majority window (0 → n)
  std::string corruption = "none";    // ssf corruption policy
  std::string engine = "aggregate";   // aggregate | exact | sequential
                                      // | heterogeneous
  std::uint64_t threads = 1;          // block-parallel lanes inside the engine
  std::string order;                  // sequential activation order ("" = random)
  bool trajectory = false;            // print per-round correct counts
  bool verify_replay = false;         // run twice, compare replay digests
  bool csv = false;
  std::string csv_path;

  // Runtime fault injection (fault/fault_plan.hpp); any non-zero rate wraps
  // the engine in a FaultyEngine.
  double byz = 0.0;                   // Byzantine fraction
  std::string byz_strategy = "always-wrong";
  double p_drop = 0.0;                // per-observation loss probability
  double crash_rate = 0.0;            // per-agent per-round crash probability
  std::uint64_t stall_min = 2;
  std::uint64_t stall_max = 10;
  double burst_rate = 0.0;            // per-round burst-start probability
  double burst_delta = 0.0;           // spiked uniform noise level
  std::uint64_t burst_rounds = 2;
  std::uint64_t fault_seed = 0;
  std::uint64_t stale_flush = 0;      // SSF stale-flush timeout (0 = off)
};

[[noreturn]] void usage(int code) {
  std::printf(R"(noisypull_cli — noisy PULL/PUSH information-spreading simulator

  --protocol P    sf | ssf | kary | voter | majority | repeated | push | tagless
  --n N           population size                      (default 1000)
  --h H           sample size / push fan-out; 0 = n    (default 0)
  --delta D       uniform noise level                  (default 0.1)
  --s1 K --s0 K   sources preferring 1 / 0             (default 1 / 0)
  --sources a,b,c per-opinion source counts (kary only)
  --c1 C          schedule constant                    (default 2.0)
  --seed S        base RNG seed                        (default 1)
  --reps R        independent repetitions              (default 8)
  --max-rounds T  round budget; 0 = protocol horizon   (default 0)
  --stability W   require consensus to hold W extra rounds
  --window K      repeated-majority window; 0 = n
  --corruption C  none | random-state | wrong-consensus |
                  overflow-memory | desync-clocks      (ssf/tagless)
  --engine E      aggregate | exact | sequential | heterogeneous | lumped
                                                       (default aggregate)
                  lumped: O(#states)-per-round population dynamics (sf/ssf
                  only, no faults/corruption/--stale-flush/--threads;
                  statistically equivalent to aggregate, not
                  bit-identical — digests only compare lumped-to-lumped)
                  heterogeneous: aggregate over per-agent channels (all at
                  --delta); per-agent channels ignore the round's matrix,
                  so it rejects --burst-rate
  --threads T     block-parallel lanes inside the engine (default 1;
                  aggregate, heterogeneous and exact engines); results are
                  bit-identical for every T
  --order O       random | ascending | descending      (sequential engine)
  --trajectory    print per-round correct counts of repetition 0
  --verify-replay run the whole configuration twice with identical seeds and
                  compare per-repetition replay digests (FNV-1a over every
                  round's display vector); exits 0 iff bit-for-bit identical
  --csv PATH      mirror the result table to PATH.csv

 runtime fault injection (any non-zero rate wraps the engine in a
 FaultyEngine; pull protocols only):
  --byz F           fraction of Byzantine agents        (default 0)
  --byz-strategy S  always-wrong | flip-flop | mimic-source
  --p-drop P        per-observation loss probability    (default 0)
  --crash-rate P    per-agent per-round crash probability
  --stall-min K     min stall duration in rounds        (default 2)
  --stall-max K     max stall duration in rounds        (default 10)
  --burst-rate P    per-round burst-start probability   (default 0)
  --burst-delta D   noise level during a burst; 0 = 1/|alphabet|
  --burst-rounds K  burst duration in rounds            (default 2)
  --fault-seed S    fault-schedule seed; 0 = --seed     (default 0)
  --stale-flush R   SSF: flush partial memory after R stale rounds
  --help
)");
  std::exit(code);
}

std::uint64_t parse_u64(const char* value) {
  // strtoull accepts a leading '-' and wraps it (-3 → 2^64 − 3), which would
  // surface much later as an opaque range error; refuse it here.
  const char* digits = value;
  while (std::isspace(static_cast<unsigned char>(*digits))) ++digits;
  if (*digits == '-') {
    std::fprintf(stderr, "error: expected a non-negative integer, got '%s'\n",
                 value);
    std::exit(2);
  }
  char* end = nullptr;
  const auto v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "error: expected integer, got '%s'\n", value);
    std::exit(2);
  }
  return v;
}

double parse_double(const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "error: expected number, got '%s'\n", value);
    std::exit(2);
  }
  // strtod accepts "nan" and "inf"; every range check downstream is false
  // for NaN, so a NaN rate would pass unnoticed.  No flag takes either.
  if (!std::isfinite(v)) {
    std::fprintf(stderr, "error: expected a finite number, got '%s'\n",
                 value);
    std::exit(2);
  }
  return v;
}

std::vector<std::uint64_t> parse_list(const std::string& value) {
  std::vector<std::uint64_t> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string token =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    out.push_back(parse_u64(token.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions opt;
  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") usage(0);
    else if (a == "--protocol") opt.protocol = need_value(i++);
    else if (a == "--n") opt.n = parse_u64(need_value(i++));
    else if (a == "--h") opt.h = parse_u64(need_value(i++));
    else if (a == "--delta") opt.delta = parse_double(need_value(i++));
    else if (a == "--s1") opt.s1 = parse_u64(need_value(i++));
    else if (a == "--s0") opt.s0 = parse_u64(need_value(i++));
    else if (a == "--sources") opt.kary_sources = parse_list(need_value(i++));
    else if (a == "--c1") opt.c1 = parse_double(need_value(i++));
    else if (a == "--seed") opt.seed = parse_u64(need_value(i++));
    else if (a == "--reps") opt.reps = parse_u64(need_value(i++));
    else if (a == "--max-rounds") opt.max_rounds = parse_u64(need_value(i++));
    else if (a == "--stability") opt.stability = parse_u64(need_value(i++));
    else if (a == "--window") opt.window = parse_u64(need_value(i++));
    else if (a == "--corruption") opt.corruption = need_value(i++);
    else if (a == "--engine") opt.engine = need_value(i++);
    else if (a == "--threads") opt.threads = parse_u64(need_value(i++));
    else if (a == "--order") opt.order = need_value(i++);
    else if (a == "--trajectory") opt.trajectory = true;
    else if (a == "--verify-replay") opt.verify_replay = true;
    else if (a == "--byz") opt.byz = parse_double(need_value(i++));
    else if (a == "--byz-strategy") opt.byz_strategy = need_value(i++);
    else if (a == "--p-drop") opt.p_drop = parse_double(need_value(i++));
    else if (a == "--crash-rate") opt.crash_rate = parse_double(need_value(i++));
    else if (a == "--stall-min") opt.stall_min = parse_u64(need_value(i++));
    else if (a == "--stall-max") opt.stall_max = parse_u64(need_value(i++));
    else if (a == "--burst-rate") opt.burst_rate = parse_double(need_value(i++));
    else if (a == "--burst-delta") opt.burst_delta = parse_double(need_value(i++));
    else if (a == "--burst-rounds") opt.burst_rounds = parse_u64(need_value(i++));
    else if (a == "--fault-seed") opt.fault_seed = parse_u64(need_value(i++));
    else if (a == "--stale-flush") opt.stale_flush = parse_u64(need_value(i++));
    else if (a == "--csv") {
      opt.csv = true;
      opt.csv_path = need_value(i++);
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", a.c_str());
      usage(2);
    }
  }
  if (opt.reps == 0) {
    std::fprintf(stderr, "error: --reps must be at least 1\n");
    std::exit(2);
  }
  return opt;
}

CorruptionPolicy parse_policy(const std::string& name) {
  for (const auto policy : kAllCorruptionPolicies) {
    if (name == to_string(policy)) return policy;
  }
  std::fprintf(stderr, "error: unknown corruption policy '%s'\n",
               name.c_str());
  std::exit(2);
}

ByzantineStrategy parse_strategy(const std::string& name) {
  for (const auto strategy :
       {ByzantineStrategy::AlwaysWrong, ByzantineStrategy::FlipFlop,
        ByzantineStrategy::MimicSource}) {
    if (name == to_string(strategy)) return strategy;
  }
  std::fprintf(stderr, "error: unknown Byzantine strategy '%s'\n",
               name.c_str());
  std::exit(2);
}

// Any nonzero rate, negative ones included: those must reach
// FaultPlan::validate and fail there, not be dropped as "no faults".
bool wants_faults(const CliOptions& opt) {
  return opt.byz != 0.0 || opt.p_drop != 0.0 || opt.crash_rate != 0.0 ||
         opt.burst_rate != 0.0;
}

// Translate the fault flags into a FaultPlan for the chosen protocol: the
// Byzantine display symbols come from the protocol family's preset (tagged
// for ssf, plain wrong-vs-correct otherwise) and sources stay immune.
FaultPlan make_fault_plan(const CliOptions& opt, Opinion correct,
                          std::size_t alphabet, std::uint64_t sources) {
  FaultPlan plan = opt.protocol == "ssf" ? FaultPlan::for_ssf(correct)
                                         : FaultPlan::for_binary(correct);
  if (alphabet > 2 && opt.protocol != "ssf") {
    // k-ary alphabet without tags: any other opinion is "wrong".
    plan.byzantine.wrong_symbol =
        static_cast<Symbol>((correct + 1) % alphabet);
    plan.byzantine.honest_symbol = static_cast<Symbol>(correct);
    plan.byzantine.mimic_symbol = plan.byzantine.wrong_symbol;
  }
  plan.seed = opt.fault_seed == 0 ? opt.seed : opt.fault_seed;
  plan.first_eligible = sources;
  plan.byzantine.fraction = opt.byz;
  plan.byzantine.strategy = parse_strategy(opt.byz_strategy);
  plan.drop.p = opt.p_drop;
  plan.stall.crash_rate = opt.crash_rate;
  plan.stall.min_rounds = opt.stall_min;
  plan.stall.max_rounds = opt.stall_max;
  plan.burst.rate = opt.burst_rate;
  plan.burst.rounds = opt.burst_rounds;
  plan.burst.delta = opt.burst_delta == 0.0
                         ? 1.0 / static_cast<double>(alphabet)
                         : opt.burst_delta;
  return plan;
}

std::unique_ptr<Engine> make_engine(const CliOptions& opt,
                                    std::size_t alphabet) {
  if (opt.engine == "aggregate") return std::make_unique<AggregateEngine>();
  if (opt.engine == "exact") return std::make_unique<ExactEngine>();
  if (opt.engine == "heterogeneous") {
    // Uniform per-agent channels at the configured delta — enough to route
    // the run (and its replay digest) through the per-agent channel groups.
    return std::make_unique<AggregateEngine>(std::vector<NoiseMatrix>(
        opt.n, NoiseMatrix::uniform(alphabet, opt.delta)));
  }
  if (opt.engine == "sequential") {
    auto order = SequentialEngine::Order::Random;
    if (opt.order == "ascending") {
      order = SequentialEngine::Order::FixedAscending;
    } else if (opt.order == "descending") {
      order = SequentialEngine::Order::FixedDescending;
    } else if (!opt.order.empty() && opt.order != "random") {
      std::fprintf(stderr, "error: unknown order '%s'\n", opt.order.c_str());
      std::exit(2);
    }
    return std::make_unique<SequentialEngine>(order);
  }
  std::fprintf(stderr, "error: unknown engine '%s'\n", opt.engine.c_str());
  std::exit(2);
}

struct PullSetup {
  std::unique_ptr<PullProtocol> protocol;
  NoiseMatrix noise;
  Opinion correct;
  std::uint64_t default_rounds = 0;  // budget when the protocol has no horizon
};

PullSetup make_pull_setup(const CliOptions& opt, std::uint64_t h, Rng& init) {
  const PopulationConfig pop{.n = opt.n, .s1 = opt.s1, .s0 = opt.s0};
  const CorruptionPolicy policy = parse_policy(opt.corruption);

  if (opt.protocol == "kary") {
    KaryPopulation kpop{.n = opt.n, .sources = opt.kary_sources};
    if (kpop.sources.empty()) kpop.sources = {opt.s0, opt.s1};
    auto protocol =
        std::make_unique<KarySourceFilter>(kpop, Holdings{h}, Delta{opt.delta},
                                           C1{opt.c1});
    const auto d = kpop.num_opinions();
    return {std::move(protocol), NoiseMatrix::uniform(d, opt.delta),
            kpop.plurality_opinion()};
  }

  const Opinion correct = pop.correct_opinion();
  if (opt.protocol == "sf") {
    // Both representations run the same trajectory (DESIGN.md §13).  On
    // the aggregate engines the compiled population applies each agent's
    // drawn count as a closed-form rule, in less time and memory; the exact
    // and sequential engines hand agents to per-agent update(), where
    // SourceFilter is faster.
    if (opt.engine == "aggregate" || opt.engine == "heterogeneous") {
      return {make_compiled_sf(pop, make_sf_schedule(pop, Holdings{h},
                                                     Delta{opt.delta},
                                                     C1{opt.c1})),
              NoiseMatrix::uniform(2, opt.delta), correct};
    }
    return {std::make_unique<SourceFilter>(pop, Holdings{h}, Delta{opt.delta},
                                           C1{opt.c1}),
            NoiseMatrix::uniform(2, opt.delta), correct};
  }
  // Budget for protocols with no intrinsic horizon: 20 memory cycles for
  // the self-stabilizing family, 50·n/h rounds for the baselines.
  const std::uint64_t baseline_budget =
      std::max<std::uint64_t>(100, 50 * ((pop.n + h - 1) / h));
  if (opt.protocol == "ssf") {
    auto ssf = std::make_unique<SelfStabilizingSourceFilter>(pop, Holdings{h},
                                                             Delta{opt.delta},
                                                             C1{opt.c1});
    if (opt.stale_flush > 0) ssf->set_stale_flush(opt.stale_flush);
    corrupt_population(*ssf, policy, correct, init);
    const std::uint64_t deadline = ssf->convergence_deadline();
    return {std::move(ssf), NoiseMatrix::uniform(4, opt.delta), correct,
            deadline};
  }
  if (opt.protocol == "tagless") {
    const auto m = ssf_memory_budget(pop, Delta{opt.delta}, C1{opt.c1});
    auto tagless = std::make_unique<TaglessSsf>(pop, Holdings{h},
                                                MemoryBudget{m});
    corrupt_population(*tagless, policy, correct, init);
    return {std::move(tagless), NoiseMatrix::uniform(2, opt.delta), correct,
            4 * ((m + h - 1) / h) + 1};
  }
  if (opt.protocol == "voter") {
    return {std::make_unique<VoterProtocol>(pop, init),
            NoiseMatrix::uniform(2, opt.delta), correct, baseline_budget};
  }
  if (opt.protocol == "majority") {
    return {std::make_unique<MajorityDynamics>(pop, init),
            NoiseMatrix::uniform(2, opt.delta), correct, baseline_budget};
  }
  if (opt.protocol == "repeated") {
    const std::uint64_t window = opt.window == 0 ? opt.n : opt.window;
    return {std::make_unique<RepeatedMajority>(pop, window, init),
            NoiseMatrix::uniform(2, opt.delta), correct, baseline_budget};
  }
  std::fprintf(stderr, "error: unknown protocol '%s'\n",
               opt.protocol.c_str());
  std::exit(2);
}

int run_push_protocol(const CliOptions& opt, std::uint64_t h) {
  const PopulationConfig pop{.n = opt.n, .s1 = opt.s1, .s0 = opt.s0};
  const auto noise = NoiseMatrix::uniform(2, opt.delta);
  Table table({"rep", "converged", "first-correct", "rounds", "correct"});
  std::uint64_t successes = 0;
  for (std::uint64_t rep = 0; rep < opt.reps; ++rep) {
    PushSpread push(pop, Holdings{h}, Delta{opt.delta});
    AggregatePushEngine engine;
    Rng rng(opt.seed, 2 * rep + 1);
    const auto r = run_push(push, engine, noise, pop.correct_opinion(),
                            RunConfig{.h = h,
                                      .max_rounds = opt.max_rounds,
                                      .stability_window = opt.stability,
                                      .record_trajectory = opt.trajectory &&
                                                           rep == 0},
                            rng);
    successes += r.all_correct_at_end ? 1 : 0;
    table.cell(rep)
        .cell(r.all_correct_at_end ? "yes" : "no")
        .cell(r.first_all_correct == kNever
                  ? std::string("never")
                  : std::to_string(r.first_all_correct))
        .cell(r.rounds_run)
        .cell(r.correct_at_end)
        .end_row();
    if (opt.trajectory && rep == 0) {
      for (std::size_t t = 0; t < r.trajectory.size(); ++t) {
        std::printf("round %zu: %llu correct\n", t,
                    static_cast<unsigned long long>(r.trajectory[t]));
      }
    }
  }
  table.print(std::cout);
  const auto iv = wilson_interval(successes, opt.reps);
  std::printf("\nsuccess %llu/%llu (95%% CI [%.2f, %.2f])\n",
              static_cast<unsigned long long>(successes),
              static_cast<unsigned long long>(opt.reps), iv.lower, iv.upper);
  if (opt.csv) {
    std::ofstream file(opt.csv_path + ".csv");
    if (file) table.write_csv(file);
  }
  return successes == opt.reps ? 0 : 1;
}

// One full pull experiment: all repetitions of the configured protocol /
// engine / fault plan.  Factored out of main() so --verify-replay can run
// the identical configuration twice and compare per-repetition digests.
struct PullOutcome {
  std::uint64_t successes = 0;
  std::vector<std::uint64_t> digests;  // replay digest per repetition
  std::vector<std::uint64_t> trajectory;
  FaultStats fault_totals{};
  Table table{{"rep", "converged", "stable", "first-correct", "rounds",
               "correct"}};
};

// The run configuration of repetition `rep`; only repetition 0 records its
// trajectory.
RunConfig rep_config(const CliOptions& opt, std::uint64_t h,
                     std::uint64_t max_rounds, std::uint64_t rep) {
  return RunConfig{.h = h,
                   .max_rounds = max_rounds,
                   .stability_window = opt.stability,
                   .record_trajectory = opt.trajectory && rep == 0};
}

// Folds repetition `rep`'s result into the outcome: its success, its
// replay digest, its trajectory (repetition 0) and its table row.
void record_rep(const CliOptions& opt, std::uint64_t rep, const RunResult& r,
                std::uint64_t digest, PullOutcome& out) {
  out.successes += r.all_correct_at_end ? 1 : 0;
  out.digests.push_back(digest);
  if (rep == 0) out.trajectory = r.trajectory;
  out.table.cell(rep)
      .cell(r.all_correct_at_end ? "yes" : "no")
      .cell(opt.stability == 0 ? "-" : (r.stable ? "yes" : "no"))
      .cell(r.first_all_correct == kNever
                ? std::string("never")
                : std::to_string(r.first_all_correct))
      .cell(r.rounds_run)
      .cell(r.correct_at_end)
      .end_row();
}

// Lumped-engine repetitions: histogram dynamics instead of agent records,
// so population size is a configuration value (n = 10¹² works).  SF/SSF
// only; fault injection and adversarial corruption act on individual agent
// memories and have no population-level counterpart (sim/lumped_engine.hpp).
int run_lumped_reps(const CliOptions& opt, std::uint64_t h, PullOutcome& out) {
  if (opt.protocol != "sf" && opt.protocol != "ssf") {
    std::fprintf(stderr,
                 "error: --engine lumped supports --protocol sf | ssf\n");
    return 2;
  }
  if (wants_faults(opt) || opt.corruption != "none") {
    std::fprintf(stderr,
                 "error: --engine lumped does not compose with fault "
                 "injection or corruption (per-agent randomness)\n");
    return 2;
  }
  const PopulationConfig pop{.n = opt.n, .s1 = opt.s1, .s0 = opt.s0};
  const Opinion correct = pop.correct_opinion();
  for (std::uint64_t rep = 0; rep < opt.reps; ++rep) {
    // Same run-substream derivation as the agent engines; the init stream
    // (2·rep) is unused because lumped initial states are deterministic.
    Rng rng(opt.seed, 2 * rep + 1);
    LumpedSetup setup;
    if (opt.protocol == "sf") {
      const SfSchedule schedule =
          make_sf_schedule(pop, Holdings{h}, Delta{opt.delta}, C1{opt.c1});
      setup = make_lumped_sf(pop, schedule, NoiseMatrix::uniform(2, opt.delta));
    } else {
      const auto m = ssf_memory_budget(pop, Delta{opt.delta}, C1{opt.c1});
      setup = make_lumped_ssf(pop, Holdings{h}, MemoryBudget{m},
                              NoiseMatrix::uniform(4, opt.delta));
    }
    const auto r = run_lumped(*setup.engine, correct,
                              rep_config(opt, h, opt.max_rounds, rep), rng);
    record_rep(opt, rep, r, setup.engine->replay_digest(), out);
  }
  return 0;
}

int run_pull_reps(const CliOptions& opt, std::uint64_t h, PullOutcome& out) {
  if (opt.engine == "lumped") return run_lumped_reps(opt, h, out);
  std::uint64_t num_sources = opt.s1 + opt.s0;
  if (opt.protocol == "kary" && !opt.kary_sources.empty()) {
    num_sources = 0;
    for (const auto s : opt.kary_sources) num_sources += s;
  }

  for (std::uint64_t rep = 0; rep < opt.reps; ++rep) {
    Rng init(opt.seed, 2 * rep);
    Rng rng(opt.seed, 2 * rep + 1);
    auto setup = make_pull_setup(opt, h, init);
    auto engine = make_engine(opt, setup.protocol->alphabet_size());
    if (opt.threads == 0 || opt.threads > 256) {
      std::fprintf(stderr, "error: --threads must be in [1, 256]\n");
      return 2;
    }
    engine->set_threads(static_cast<unsigned>(opt.threads));
    std::unique_ptr<FaultyEngine> faulty;
    Engine* eng = engine.get();
    if (wants_faults(opt)) {
      const FaultPlan plan = make_fault_plan(
          opt, setup.correct, setup.protocol->alphabet_size(), num_sources);
      try {
        plan.validate(setup.protocol->alphabet_size());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      faulty = std::make_unique<FaultyEngine>(*engine, plan);
      eng = faulty.get();
    }
    std::uint64_t budget = opt.max_rounds;
    if (budget == 0 && setup.protocol->planned_rounds() == 0) {
      budget = setup.default_rounds;
    }
    const auto r = run(*setup.protocol, *eng, setup.noise, setup.correct,
                       rep_config(opt, h, budget, rep), rng);
    record_rep(opt, rep, r, eng->replay_digest(), out);
    if (faulty) {
      const auto& fs = faulty->stats();
      out.fault_totals.byzantine_agents = fs.byzantine_agents;
      out.fault_totals.crashes += fs.crashes;
      out.fault_totals.stalled_updates += fs.stalled_updates;
      out.fault_totals.dropped_observations += fs.dropped_observations;
      out.fault_totals.burst_rounds += fs.burst_rounds;
    }
  }
  return 0;
}

// Runs the configured experiment twice from identical seeds and compares
// the per-repetition replay digests — the dynamic determinism audit.
int run_verify_replay(const CliOptions& opt, std::uint64_t h) {
  PullOutcome first, second;
  if (const int rc = run_pull_reps(opt, h, first); rc != 0) return rc;
  if (const int rc = run_pull_reps(opt, h, second); rc != 0) return rc;

  Table table({"rep", "digest-run-1", "digest-run-2", "match"});
  std::uint64_t mismatches = 0;
  for (std::uint64_t rep = 0; rep < opt.reps; ++rep) {
    char d1[32], d2[32];
    std::snprintf(d1, sizeof d1, "%016llx",
                  static_cast<unsigned long long>(first.digests[rep]));
    std::snprintf(d2, sizeof d2, "%016llx",
                  static_cast<unsigned long long>(second.digests[rep]));
    const bool match = first.digests[rep] == second.digests[rep];
    mismatches += match ? 0 : 1;
    table.cell(rep).cell(d1).cell(d2).cell(match ? "yes" : "NO").end_row();
  }
  table.print(std::cout);
  if (mismatches == 0 && first.successes == second.successes) {
    std::printf("\nverify-replay: OK — %llu repetition(s) bit-for-bit "
                "reproducible\n",
                static_cast<unsigned long long>(opt.reps));
    return 0;
  }
  std::printf("\nverify-replay: FAILED — %llu digest mismatch(es); "
              "nondeterminism in the simulation path\n",
              static_cast<unsigned long long>(mismatches));
  return 1;
}

// A flag the chosen protocol never reads would leave the run unchanged
// while its table appears to answer for it; refuse it instead.
bool rejects_ignored_flags(const CliOptions& opt) {
  const std::string& p = opt.protocol;
  const struct {
    const char* flag;
    bool set;
    bool read;
    const char* readers;
  } flags[] = {
      {"--corruption", opt.corruption != "none", p == "ssf" || p == "tagless",
       "ssf | tagless"},
      {"--stale-flush", opt.stale_flush > 0, p == "ssf", "ssf"},
      {"--window", opt.window > 0, p == "repeated", "repeated"},
      {"--sources", !opt.kary_sources.empty(), p == "kary", "kary"},
  };
  for (const auto& f : flags) {
    if (f.set && !f.read) {
      std::fprintf(stderr,
                   "error: %s is read by --protocol %s only, not %s\n",
                   f.flag, f.readers, p.c_str());
      return true;
    }
  }
  return false;
}

// The same silent wrong table, scoped by engine: a flag only some engines
// read.  The lumped engine runs SSF with stale_flush = 0 and no lanes, and
// only the sequential engine has an activation order.
bool rejects_ignored_engine_flags(const CliOptions& opt) {
  const std::string& e = opt.engine;
  const struct {
    const char* flag;
    bool set;
    bool read;
    const char* readers;
  } flags[] = {
      {"--stale-flush", opt.stale_flush > 0, e != "lumped",
       "aggregate | heterogeneous | exact | sequential"},
      {"--order", !opt.order.empty(), e == "sequential", "sequential"},
      {"--threads", opt.threads != 1,
       e == "aggregate" || e == "heterogeneous" || e == "exact",
       "aggregate | heterogeneous | exact"},
  };
  for (const auto& f : flags) {
    if (f.set && !f.read) {
      std::fprintf(stderr, "error: %s is read by --engine %s only, not %s\n",
                   f.flag, f.readers, e.c_str());
      return true;
    }
  }
  return false;
}

int run_cli(const CliOptions& opt) {
  const std::uint64_t h = opt.h == 0 ? opt.n : opt.h;

  if (rejects_ignored_flags(opt) || rejects_ignored_engine_flags(opt)) {
    return 2;
  }

  if (opt.engine == "heterogeneous" && opt.burst_rate > 0.0) {
    // Bursts swap the round's channel matrix, which per-agent channels never
    // read: the run would report burst rounds that changed nothing.
    std::fprintf(stderr,
                 "error: --burst-rate does not compose with --engine "
                 "heterogeneous (per-agent channels ignore the burst "
                 "matrix)\n");
    return 2;
  }

  std::printf("protocol=%s n=%llu h=%llu delta=%.3f seed=%llu reps=%llu\n\n",
              opt.protocol.c_str(), static_cast<unsigned long long>(opt.n),
              static_cast<unsigned long long>(h), opt.delta,
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(opt.reps));

  if (opt.protocol == "push") {
    if (wants_faults(opt)) {
      std::fprintf(stderr,
                   "error: fault injection targets pull engines; "
                   "--protocol push is not supported\n");
      return 2;
    }
    if (opt.verify_replay) {
      std::fprintf(stderr,
                   "error: --verify-replay audits the pull engines; "
                   "--protocol push is not supported\n");
      return 2;
    }
    return run_push_protocol(opt, h);
  }

  if (opt.verify_replay) return run_verify_replay(opt, h);

  PullOutcome out;
  if (const int rc = run_pull_reps(opt, h, out); rc != 0) return rc;
  const std::uint64_t successes = out.successes;
  const std::vector<std::uint64_t>& trajectory = out.trajectory;
  const FaultStats& fault_totals = out.fault_totals;
  Table& table = out.table;
  if (opt.trajectory) {
    for (std::size_t t = 0; t < trajectory.size(); ++t) {
      std::printf("round %zu: %llu correct\n", t,
                  static_cast<unsigned long long>(trajectory[t]));
    }
    std::printf("\n");
  }
  table.print(std::cout);
  const auto iv = wilson_interval(successes, opt.reps);
  std::printf("\nsuccess %llu/%llu (95%% CI [%.2f, %.2f])\n",
              static_cast<unsigned long long>(successes),
              static_cast<unsigned long long>(opt.reps), iv.lower, iv.upper);
  if (wants_faults(opt)) {
    std::printf("faults (all reps): %llu byzantine agents/rep, %llu crashes, "
                "%llu stalled updates,\n  %llu dropped observations, "
                "%llu burst rounds\n",
                static_cast<unsigned long long>(fault_totals.byzantine_agents),
                static_cast<unsigned long long>(fault_totals.crashes),
                static_cast<unsigned long long>(fault_totals.stalled_updates),
                static_cast<unsigned long long>(
                    fault_totals.dropped_observations),
                static_cast<unsigned long long>(fault_totals.burst_rounds));
  }
  if (opt.csv) {
    std::ofstream file(opt.csv_path + ".csv");
    if (file) table.write_csv(file);
  }
  return successes == opt.reps ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse_args(argc, argv);
  // The library reports violated preconditions (--n 0, --delta 0.5, ...) as
  // std::invalid_argument; they are bad input, so report them like a bad
  // flag value instead of letting them terminate the process.
  try {
    return run_cli(opt);
  } catch (const std::invalid_argument& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
