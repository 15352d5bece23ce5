// CONF — conflicting sources / plurality consensus (§1.3–1.4): with s1
// sources for 1 and s0 for 0, the population must converge to the strict
// plurality, even at bias 1, and including the outvoted sources themselves.
//
// Sweeps (s1, s0) pairs at several population sizes, for SF and for SSF.
//
// All cells go through one experiment-scheduler queue
// (analysis/scheduler.hpp): `--threads` drains cells concurrently,
// `--ci-halfwidth`/`--max-reps` opt into adaptive early stopping, and
// `--cache-dir` reuses previously computed repetitions.  Cell seeds keep the
// pre-scheduler bench's per-cell seeds (SF 10000 + n + s1·7 + s0, SSF
// 11000 + n + s1·7 + s0), so trajectories are bit-identical to it.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace noisypull;
  using namespace noisypull::bench;
  const auto args = BenchArgs::parse(argc, argv);

  header("CONF / tab_conflicting_sources",
         "Conflicting sources: convergence to the plurality opinion among "
         "sources, for bias down to s = 1 (zealot consensus).");

  const double delta = 0.15;
  const double delta_ssf = 0.05;
  const std::uint64_t reps = 12;

  struct Pair {
    std::uint64_t s1, s0;
  };
  const Pair pairs[] = {{1, 0}, {2, 1}, {6, 5}, {20, 19}, {30, 10}, {0, 3}};

  // Cells interleave SF/SSF per grid row: row r reads stats[2r] / stats[2r+1].
  struct Row {
    PopulationConfig pop;
  };
  std::vector<Row> grid;
  std::vector<ExperimentCell> cells;
  for (std::uint64_t n : {1000ULL, 4000ULL}) {
    for (const auto& pr : pairs) {
      const PopulationConfig pop{.n = n, .s1 = pr.s1, .s0 = pr.s0};
      grid.push_back({pop});
      const std::string suffix = " n=" + std::to_string(n) +
                                 " s1=" + std::to_string(pr.s1) +
                                 " s0=" + std::to_string(pr.s0);
      cells.push_back(ExperimentCell{
          .label = "SF" + suffix,
          .make_protocol = sf_factory(pop, Holdings{n}, Delta{delta}),
          .noise = NoiseMatrix::uniform(2, delta),
          .correct = pop.correct_opinion(),
          .cfg = RunConfig{.h = n},
          .seed = 10000 + n + pr.s1 * 7 + pr.s0,
          .protocol_digest = sf_digest(pop, Holdings{n}, Delta{delta})});
      const SelfStabilizingSourceFilter ref(pop, Holdings{n}, Delta{delta_ssf},
                                            kC1);
      cells.push_back(ExperimentCell{
          .label = "SSF" + suffix,
          .make_protocol = ssf_factory(pop, Holdings{n}, Delta{delta_ssf},
                                       CorruptionPolicy::RandomState),
          .noise = NoiseMatrix::uniform(4, delta_ssf),
          .correct = pop.correct_opinion(),
          .cfg = RunConfig{.h = n, .max_rounds = ref.convergence_deadline()},
          .seed = 11000 + n + pr.s1 * 7 + pr.s0,
          .protocol_digest = ssf_digest(pop, Holdings{n}, Delta{delta_ssf},
                                        CorruptionPolicy::RandomState)});
    }
  }
  const auto stats = run_experiment(cells, scheduler_options(args, reps));
  warn_if_degraded(stats);

  Table table({"n", "s1", "s0", "bias", "correct op", "SF success",
               "SSF success"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PopulationConfig& pop = grid[i].pop;
    table.cell(pop.n)
        .cell(pop.s1)
        .cell(pop.s0)
        .cell(pop.bias())
        .cell(static_cast<std::uint64_t>(pop.correct_opinion()))
        .cell(stats[2 * i].success_rate, 2)
        .cell(stats[2 * i + 1].success_rate, 2)
        .end_row();
  }
  args.emit(table);
  std::printf(
      "expected shape: success ~1 across the board — the plurality wins\n"
      "regardless of how small the margin is or which opinion is correct\n"
      "(SSF runs from randomized adversarial initial states).\n");
  return 0;
}
