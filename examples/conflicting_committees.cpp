// Conflicting sources / zealot consensus: a committee vote under noise.
//
// The paper's problem definition allows sources that *disagree*: s1 sources
// prefer 1 and s0 prefer 0, and the population must converge on the
// plurality preference — even when the margin is a single vote (bias s = 1).
// This is the "zealot consensus" / "majority bit dissemination" task.
//
// Scenario: a swarm of 5,000 drones must adopt one of two rendezvous points.
// A small scouting committee has inspected both; 6 scouts prefer point B
// (opinion 1), 5 prefer point A (opinion 0).  Communication is anonymous
// broadcast sampling with 15% message corruption.  The swarm must settle on
// the committee's plurality — B — including convincing the 5 dissenting
// scouts.
//
// Build & run:  ./build/examples/conflicting_committees
#include <cstdio>
#include <iostream>
#include <string>

#include "noisypull/noisypull.hpp"

int main() {
  using namespace noisypull;

  const PopulationConfig pop{.n = 5'000, .s1 = 6, .s0 = 5};
  const double delta = 0.15;
  const auto noise = NoiseMatrix::uniform(2, delta);

  std::printf("committee: %llu scouts for B vs %llu for A (bias s = %llu)\n",
              static_cast<unsigned long long>(pop.s1),
              static_cast<unsigned long long>(pop.s0),
              static_cast<unsigned long long>(pop.bias()));
  std::printf("swarm size n = %llu, message corruption delta = %.2f\n\n",
              static_cast<unsigned long long>(pop.n), delta);

  SourceFilter protocol(pop, Holdings{pop.n}, Delta{delta}, C1{2.0});
  AggregateEngine engine;
  Rng rng(7);
  const auto result = run(protocol, engine, noise, pop.correct_opinion(),
                          RunConfig{.h = pop.n}, rng);

  std::printf("consensus reached: %s (%llu/%llu agents on the plurality "
              "choice after %llu rounds)\n",
              result.all_correct_at_end ? "yes" : "no",
              static_cast<unsigned long long>(result.correct_at_end),
              static_cast<unsigned long long>(pop.n),
              static_cast<unsigned long long>(result.rounds_run));

  // Definition 2 demands that even the dissenting scouts converge: check
  // the five A-preferring sources (agents s1 .. s1+s0-1).
  bool dissenters_flipped = true;
  for (std::uint64_t i = pop.s1; i < pop.s1 + pop.s0; ++i) {
    if (protocol.opinion(i) != pop.correct_opinion()) {
      dissenters_flipped = false;
    }
  }
  std::printf("dissenting scouts adopted the plurality choice: %s\n\n",
              dissenters_flipped ? "yes" : "no");

  // How tight can the committee be?  Sweep the bias down to 1.
  std::printf("sensitivity: success rate vs committee margin (24 runs each)\n");
  Table table({"scouts for B", "scouts for A", "bias", "success rate"});
  for (std::uint64_t s0 : {0ULL, 3ULL, 5ULL}) {
    const PopulationConfig p2{.n = 2'000, .s1 = s0 + 1, .s0 = s0};
    const auto stats = run_experiment(
        {ExperimentCell{
            .label = "s0=" + std::to_string(s0),
            .make_protocol =
                [p2, delta](Rng&) -> std::unique_ptr<PullProtocol> {
                  return std::make_unique<SourceFilter>(p2, Holdings{p2.n},
                                                        Delta{delta}, C1{2.0});
                },
            .noise = noise,
            .correct = p2.correct_opinion(),
            .cfg = RunConfig{.h = p2.n},
            .seed = 99 + s0}},
        SchedulerOptions{.stop = StopRule{.max_reps = 24}});
    table.cell(p2.s1).cell(p2.s0).cell(p2.bias()).cell(stats[0].success_rate,
                                                       3);
    table.end_row();
  }
  table.print(std::cout);
  std::printf("\neven a one-vote margin is reliably amplified to unanimous\n"
              "consensus — the property Theorem 4 guarantees for s >= 1.\n");
  return result.all_correct_at_end ? 0 : 1;
}
