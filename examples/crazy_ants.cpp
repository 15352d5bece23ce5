// Cooperative transport by "crazy ants" (Paratrechina longicornis).
//
// The paper's motivating scenario (§1.1): a group of ants carries a food
// load; each carrier senses the *cumulative* force of all carriers through
// the object — a noisy observation of the whole population, i.e. the noisy
// PULL(h) model with h ≈ n.  Occasionally a single informed ant joins and
// must steer the group toward the nest.  The question the paper answers:
// can one informed ant redirect the whole group *quickly*?
//
// This example maps the scenario onto the library:
//   * opinion 1 = "pull toward the nest", opinion 0 = "pull away";
//   * the informed ant is a single source with preference 1;
//   * force sensing is a PULL(h) observation with h = group size;
//   * δ models mechanical/sensory noise in reading the load's motion.
// We compare the SF strategy against the voter-style dynamics (each ant
// aligns with a random sensed force contribution, the Gelblum et al. model)
// for growing group sizes, printing rounds-to-alignment for each.
//
// Build & run:  ./build/examples/crazy_ants
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "noisypull/noisypull.hpp"

namespace {

using namespace noisypull;

// Mean rounds until the whole group pulls toward the nest over 8 seeded
// repetitions of at most `budget` rounds (0: the protocol's own horizon);
// empty when no repetition ever aligned.
std::optional<double> alignment_rounds(ProtocolFactory make_protocol,
                                       std::uint64_t n, double delta,
                                       std::uint64_t seed,
                                       std::uint64_t budget) {
  const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};
  const auto stats = run_experiment(
      {ExperimentCell{.label = "n=" + std::to_string(n),
                      .make_protocol = std::move(make_protocol),
                      .noise = NoiseMatrix::uniform(2, delta),
                      .correct = pop.correct_opinion(),
                      .cfg = RunConfig{.h = n, .max_rounds = budget},
                      .seed = seed}},
      SchedulerOptions{.stop = StopRule{.max_reps = 8}});
  return stats[0].mean_convergence_round;
}

std::optional<double> sf_alignment_rounds(std::uint64_t n, double delta,
                                          std::uint64_t seed) {
  const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};
  return alignment_rounds(
      [pop, n, delta](Rng&) -> std::unique_ptr<PullProtocol> {
        return std::make_unique<SourceFilter>(pop, Holdings{n}, Delta{delta},
                                              C1{2.0});
      },
      n, delta, seed, /*budget=*/0);
}

std::optional<double> voter_alignment_rounds(std::uint64_t n, double delta,
                                             std::uint64_t seed,
                                             std::uint64_t budget) {
  const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};
  return alignment_rounds(
      [pop](Rng& init) -> std::unique_ptr<PullProtocol> {
        return std::make_unique<VoterProtocol>(pop, init);
      },
      n, delta, seed, budget);
}

}  // namespace

int main() {
  using namespace noisypull;
  const double delta = 0.2;  // sensing noise

  std::printf("Cooperative transport: one informed ant steering the group\n");
  std::printf("(sensing = noisy PULL(h=n), delta = %.2f; voter = align with\n"
              " a random sensed contribution, SF = listen-then-boost)\n\n",
              delta);

  Table table({"ants", "SF rounds to alignment", "voter rounds (budgeted)",
               "voter aligned?"});
  for (std::uint64_t n : {50ULL, 100ULL, 200ULL, 400ULL, 800ULL}) {
    const std::optional<double> sf_rounds =
        sf_alignment_rounds(n, delta, 11 + n);
    // Give the voter dynamics a generous budget of 20·n rounds.
    const std::optional<double> voter_rounds =
        voter_alignment_rounds(n, delta, 13 + n, 20 * n);
    table.cell(n)
        .cell(sf_rounds, 1)
        .cell(voter_rounds, 1)  // "never" when no repetition aligned
        .cell(voter_rounds ? "sometimes" : "no")
        .end_row();
  }
  table.print(std::cout);
  std::printf("\nSF alignment time grows ~logarithmically with group size;\n"
              "the voter-style dynamics does not reliably follow the single\n"
              "informed ant — matching the paper's message that sensing the\n"
              "average tendency (large h) makes fast steering possible.\n");
  return 0;
}
