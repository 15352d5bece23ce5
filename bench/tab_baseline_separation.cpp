// SEP — the separation story of §1.2/§3: classic PULL dynamics (voter,
// local majority, repeated majority without source filtering) cannot
// reliably follow a single noisy source, while SF can — and SF's advantage
// is what the Ω(n) vs O(log n) separation is about.
//
// Every baseline gets the same generous round budget that SF needs, times
// 3; we report success rates and (where meaningful) convergence rounds.
//
// All cells go through one experiment-scheduler queue
// (analysis/scheduler.hpp): `--threads` drains cells concurrently,
// `--ci-halfwidth`/`--max-reps` opt into adaptive early stopping, and
// `--cache-dir` reuses previously computed repetitions.  Cell seeds keep the
// pre-scheduler bench's per-cell seeds (12000 + n + h·3, shared by the four
// protocols of one (n, h) group), so trajectories are bit-identical to it;
// the cells stay distinct in the cache through their protocol digests.
#include "bench_common.hpp"

namespace {

using namespace noisypull;

ProtocolFactory voter_factory(const PopulationConfig& pop) {
  return [pop](Rng& init) -> std::unique_ptr<PullProtocol> {
    return std::make_unique<VoterProtocol>(pop, init);
  };
}

ProtocolFactory majority_factory(const PopulationConfig& pop) {
  return [pop](Rng& init) -> std::unique_ptr<PullProtocol> {
    return std::make_unique<MajorityDynamics>(pop, init);
  };
}

ProtocolFactory repeated_factory(const PopulationConfig& pop,
                                 std::uint64_t window) {
  return [pop, window](Rng& init) -> std::unique_ptr<PullProtocol> {
    return std::make_unique<RepeatedMajority>(pop, window, init);
  };
}

// Protocol-construction digests for the baseline factories above, mirroring
// bench_common's sf_digest/ssf_digest: protocol type plus every captured
// construction parameter.
std::uint64_t voter_digest(const PopulationConfig& pop) {
  return CellKey().str("VoterProtocol").u64(pop.n).u64(pop.s1).u64(pop.s0)
      .digest();
}

std::uint64_t majority_digest(const PopulationConfig& pop) {
  return CellKey().str("MajorityDynamics").u64(pop.n).u64(pop.s1).u64(pop.s0)
      .digest();
}

std::uint64_t repeated_digest(const PopulationConfig& pop,
                              std::uint64_t window) {
  return CellKey().str("RepeatedMajority").u64(pop.n).u64(pop.s1).u64(pop.s0)
      .u64(window).digest();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace noisypull;
  using namespace noisypull::bench;
  const auto args = BenchArgs::parse(argc, argv);

  header("SEP / tab_baseline_separation",
         "Baselines vs SF with a single noisy source: copy/majority "
         "dynamics lock onto an arbitrary value; SF follows the source.");

  const double delta = 0.15;
  const auto noise = NoiseMatrix::uniform(2, delta);
  const std::uint64_t reps = 8;

  struct Row {
    std::uint64_t n;
    std::uint64_t h;
    const char* name;
    std::uint64_t budget_shown;  // SF planned rounds, or the 3x budget
  };
  std::vector<Row> grid;
  std::vector<ExperimentCell> cells;
  for (std::uint64_t n : {500ULL, 2000ULL}) {
    const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};
    for (std::uint64_t h : {std::uint64_t{16}, n}) {
      // SF defines the reference budget.
      SourceFilter ref(pop, Holdings{h}, Delta{delta}, kC1);
      const std::uint64_t budget = 3 * ref.planned_rounds();
      const std::uint64_t seed = 12000 + n + h * 3;

      struct Proto {
        const char* name;
        ProtocolFactory factory;
        std::uint64_t digest;
      };
      const Proto protos[] = {
          {"SF", sf_factory(pop, Holdings{h}, Delta{delta}),
           sf_digest(pop, Holdings{h}, Delta{delta})},
          {"voter", voter_factory(pop), voter_digest(pop)},
          {"majority", majority_factory(pop), majority_digest(pop)},
          {"repeated-majority", repeated_factory(pop, ref.schedule().m),
           repeated_digest(pop, ref.schedule().m)},
      };
      for (const auto& proto : protos) {
        const bool is_sf = std::string(proto.name) == "SF";
        const std::uint64_t max_rounds = is_sf ? 0 : budget;
        grid.push_back({n, h, proto.name,
                        is_sf ? ref.planned_rounds() : budget});
        cells.push_back(ExperimentCell{
            .label = std::string(proto.name) + " n=" + std::to_string(n) +
                     " h=" + std::to_string(h),
            .make_protocol = proto.factory,
            .noise = noise,
            .correct = pop.correct_opinion(),
            .cfg = RunConfig{.h = h, .max_rounds = max_rounds},
            .seed = seed,
            .protocol_digest = proto.digest});
      }
    }
  }
  const auto stats = run_experiment(cells, scheduler_options(args, reps));
  warn_if_degraded(stats);

  Table table({"n", "h", "protocol", "success", "mean first-correct",
               "budget"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Row& row = grid[i];
    table.cell(row.n)
        .cell(row.h)
        .cell(row.name)
        .cell(stats[i].success_rate, 2)
        // Renders "never" when no repetition converged (the old -1.0
        // sentinel existed only to mask the kNever cast).
        .cell(stats[i].mean_convergence_round, 1)
        .cell(row.budget_shown)
        .end_row();
  }
  args.emit(table);
  std::printf(
      "expected shape: SF success ~1 everywhere; voter/majority/repeated-\n"
      "majority succeed only ~coin-flip often (they reach *some* consensus\n"
      "fast, but not the source's) — the separation that motivates SF's\n"
      "listening phase.  (first-correct = never: no repetition converged.)\n");
  return 0;
}
