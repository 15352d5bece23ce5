// ABL — ablation benches for the design choices DESIGN.md calls out:
//   1. SF without the neutral listening phase (EagerSourceFilter): relayed
//      uninformed opinions swamp the source unless s = Ω(√n);
//   2. SF with alternating neutral displays (the §2.1 remark's variant):
//      conjectured to work as well as block displays;
//   3. SSF without the source-tag bit (TaglessSsf): self-stabilization
//      breaks — a wrong-consensus corruption sticks;
//   4. SF on a non-uniform channel with vs without the Theorem 8 reduction.
//
// All three sections share one experiment-scheduler queue
// (analysis/scheduler.hpp): `--threads` drains cells concurrently,
// `--ci-halfwidth`/`--max-reps` opt into adaptive early stopping, and
// `--cache-dir` reuses previously computed repetitions.  Cell seeds keep
// the pre-scheduler bench's per-cell seeds (13000/13100/13200 + s,
// 14000/14100 + policy, 15000/15100), so every trajectory — and the printed
// tables — are bit-identical to it.
#include "bench_common.hpp"

namespace {

using namespace noisypull;
using noisypull::bench::kC1;

ProtocolFactory eager_factory(const PopulationConfig& pop, SfSchedule sched) {
  return [pop, sched](Rng& init) -> std::unique_ptr<PullProtocol> {
    return std::make_unique<EagerSourceFilter>(pop, sched, init);
  };
}

ProtocolFactory alternating_factory(const PopulationConfig& pop,
                                    SfSchedule sched) {
  return [pop, sched](Rng& init) -> std::unique_ptr<PullProtocol> {
    return std::make_unique<AlternatingSourceFilter>(pop, sched, init);
  };
}

ProtocolFactory tagless_factory(const PopulationConfig& pop, std::uint64_t m,
                                CorruptionPolicy policy) {
  return [pop, m, policy](Rng& init) -> std::unique_ptr<PullProtocol> {
    auto t = std::make_unique<TaglessSsf>(pop, Holdings{pop.n},
                                          MemoryBudget{m});
    corrupt_population(*t, policy, pop.correct_opinion(), init);
    return t;
  };
}

// Protocol-construction digests for the factories above, mirroring
// bench_common's sf_digest/ssf_digest: protocol type plus every captured
// construction parameter.  The listening-phase variants capture a schedule
// derived from (pop, h, delta, c1), so those are what the key folds.
std::uint64_t eager_digest(const PopulationConfig& pop, Holdings h,
                           Delta delta, C1 c1 = kC1) {
  return CellKey().str("EagerSourceFilter").u64(pop.n).u64(pop.s1).u64(pop.s0)
      .u64(h.get()).f64(delta.get()).f64(c1.get()).digest();
}

std::uint64_t alternating_digest(const PopulationConfig& pop, Holdings h,
                                 Delta delta, C1 c1 = kC1) {
  return CellKey().str("AlternatingSourceFilter").u64(pop.n).u64(pop.s1)
      .u64(pop.s0).u64(h.get()).f64(delta.get()).f64(c1.get()).digest();
}

std::uint64_t tagless_digest(const PopulationConfig& pop, std::uint64_t m,
                             CorruptionPolicy policy) {
  return CellKey().str("TaglessSsf").u64(pop.n).u64(pop.s1).u64(pop.s0)
      .u64(pop.n).u64(m).str(to_string(policy)).digest();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace noisypull;
  using namespace noisypull::bench;
  const auto args = BenchArgs::parse(argc, argv);

  header("ABL / tab_ablations",
         "Design-choice ablations: neutral listening phase, alternating "
         "displays, the SSF source tag, and the noise reduction.");

  const double delta = 0.15;
  const auto noise = NoiseMatrix::uniform(2, delta);
  const std::uint64_t reps = 12;

  // All sections' cells go into one flat queue; each section remembers the
  // index range its table reads back.
  std::vector<ExperimentCell> cells;

  // (1)+(2): listening-phase variants across bias values.  Three cells per
  // bias in protocol order SF, alternating, eager.
  const std::uint64_t biases[] = {1, 4, 64};
  const std::uint64_t listening_n = 2000;
  for (const std::uint64_t s : biases) {
    const PopulationConfig pop{.n = listening_n, .s1 = s, .s0 = 0};
    const std::uint64_t n = pop.n;
    const auto sched = make_sf_schedule(pop, Holdings{n}, Delta{delta}, kC1);
    struct Variant {
      ProtocolFactory factory;
      std::uint64_t seed;
      std::uint64_t digest;
    };
    const Variant variants[] = {
        {sf_factory(pop, Holdings{n}, Delta{delta}), 13000 + s,
         sf_digest(pop, Holdings{n}, Delta{delta})},
        {alternating_factory(pop, sched), 13100 + s,
         alternating_digest(pop, Holdings{n}, Delta{delta})},
        {eager_factory(pop, sched), 13200 + s,
         eager_digest(pop, Holdings{n}, Delta{delta})},
    };
    for (const Variant& v : variants) {
      cells.push_back(ExperimentCell{
          .label = "listening s=" + std::to_string(s) + " seed=" +
                   std::to_string(v.seed),
          .make_protocol = v.factory,
          .noise = noise,
          .correct = pop.correct_opinion(),
          .cfg = RunConfig{.h = n},
          .seed = v.seed,
          .protocol_digest = v.digest});
    }
  }
  const std::size_t tag_base = cells.size();

  // (3): the SSF source tag under wrong-consensus corruption.  Two cells per
  // policy in protocol order SSF, tagless.
  const double dssf = 0.05;
  const std::uint64_t tag_n = 1000;
  const PopulationConfig tag_pop{.n = tag_n, .s1 = 2, .s0 = 0};
  const SelfStabilizingSourceFilter tag_ref(tag_pop, Holdings{tag_n},
                                            Delta{dssf}, kC1);
  for (const auto policy :
       {CorruptionPolicy::None, CorruptionPolicy::WrongConsensus}) {
    cells.push_back(ExperimentCell{
        .label = std::string("tag ssf ") + std::string(to_string(policy)),
        .make_protocol = ssf_factory(tag_pop, Holdings{tag_n}, Delta{dssf},
                                     policy),
        .noise = NoiseMatrix::uniform(4, dssf),
        .correct = tag_pop.correct_opinion(),
        .cfg = RunConfig{.h = tag_n,
                         .max_rounds = tag_ref.convergence_deadline()},
        .seed = 14000 + static_cast<std::uint64_t>(policy),
        .protocol_digest =
            ssf_digest(tag_pop, Holdings{tag_n}, Delta{dssf}, policy)});
    cells.push_back(ExperimentCell{
        .label = std::string("tag tagless ") + std::string(to_string(policy)),
        .make_protocol = tagless_factory(tag_pop, tag_ref.memory_budget(),
                                         policy),
        .noise = NoiseMatrix::uniform(2, dssf),
        .correct = tag_pop.correct_opinion(),
        .cfg = RunConfig{.h = tag_n,
                         .max_rounds = tag_ref.convergence_deadline()},
        .seed = 14100 + static_cast<std::uint64_t>(policy),
        .protocol_digest =
            tagless_digest(tag_pop, tag_ref.memory_budget(), policy)});
  }
  const std::size_t reduction_base = cells.size();

  // (4): Theorem 8 reduction on vs off for a skewed channel.  The "with"
  // cell composes the reduction's artificial noise behind the raw channel —
  // ExperimentCell::artificial_noise, folded into the cache key by the
  // scheduler.
  const NoiseMatrix raw(Matrix{0.97, 0.03, 0.25, 0.75});
  const auto red = reduce_to_uniform(raw);
  const PopulationConfig red_pop{.n = 2000, .s1 = 1, .s0 = 0};
  cells.push_back(ExperimentCell{
      .label = "reduction artificial",
      .make_protocol =
          sf_factory(red_pop, Holdings{red_pop.n}, Delta{red.delta_prime}),
      .noise = raw,
      .correct = red_pop.correct_opinion(),
      .cfg = RunConfig{.h = red_pop.n},
      .seed = 15000,
      .protocol_digest =
          sf_digest(red_pop, Holdings{red_pop.n}, Delta{red.delta_prime}),
      .use_aggregate_engine = true,
      .artificial_noise = red.artificial});
  // Without the reduction, tune SF to the tightest upper bound and run on
  // the raw (asymmetric) channel directly.
  cells.push_back(ExperimentCell{
      .label = "reduction raw",
      .make_protocol = sf_factory(red_pop, Holdings{red_pop.n},
                                  Delta{raw.tightest_upper_bound()}),
      .noise = raw,
      .correct = red_pop.correct_opinion(),
      .cfg = RunConfig{.h = red_pop.n},
      .seed = 15100,
      .protocol_digest = sf_digest(red_pop, Holdings{red_pop.n},
                                   Delta{raw.tightest_upper_bound()})});

  const auto stats = run_experiment(cells, scheduler_options(args, reps));
  warn_if_degraded(stats);

  {
    Table table({"n", "bias s", "SF", "alternating", "eager (no listening)"});
    for (std::size_t si = 0; si < sizeof(biases) / sizeof(biases[0]); ++si) {
      const std::size_t base = si * 3;
      table.cell(listening_n)
          .cell(biases[si])
          .cell(stats[base].success_rate, 2)
          .cell(stats[base + 1].success_rate, 2)
          .cell(stats[base + 2].success_rate, 2)
          .end_row();
    }
    args.emit(table, "_listening");
    std::printf(
        "expected: SF and alternating ~1 at every bias; eager fails at\n"
        "small bias (the relayed-opinion noise floor) and recovers only\n"
        "once s approaches sqrt(n).\n\n");
  }

  {
    Table table({"n", "protocol", "corruption", "success"});
    std::size_t idx = tag_base;
    for (const auto policy :
         {CorruptionPolicy::None, CorruptionPolicy::WrongConsensus}) {
      table.cell(tag_n).cell("SSF (2-bit)").cell(to_string(policy)).cell(
          stats[idx++].success_rate, 2);
      table.end_row();
      table.cell(tag_n).cell("tagless (1-bit)").cell(to_string(policy)).cell(
          stats[idx++].success_rate, 2);
      table.end_row();
    }
    args.emit(table, "_tag");
    std::printf(
        "expected: SSF ~1 under both; the tagless variant cannot recover\n"
        "from the wrong-consensus corruption (majority locks it in).\n\n");
  }

  {
    Table table({"channel handling", "tuned delta", "success"});
    table.cell("Theorem 8 reduction (artificial noise)")
        .cell(red.delta_prime, 3)
        .cell(stats[reduction_base].success_rate, 2)
        .end_row();
    table.cell("raw asymmetric channel")
        .cell(raw.tightest_upper_bound(), 3)
        .cell(stats[reduction_base + 1].success_rate, 2)
        .end_row();
    args.emit(table, "_reduction");
    std::printf(
        "expected: the reduction path succeeds ~1.  The raw path can fail:\n"
        "an asymmetric channel biases the neutral phases, which is exactly\n"
        "why Section 4 symmetrizes the noise first.\n");
  }
  return 0;
}
