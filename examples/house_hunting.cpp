// House-hunting with multiple candidate nests (the paper's §3 discussion).
//
// When a Temnothorax colony loses its nest, scouts assess candidate sites
// and the colony must converge on the best one.  The paper interprets the
// scouts' strategy through its framework: tandem runs *increase the number
// of sources* (first-hand assessors) instead of relaying noisy estimates,
// and a quorum/majority phase then amplifies the plurality.
//
// This example models the decision stage with the k-ary Source Filter:
// k candidate nests, a handful of scouts per nest (more scouts for better
// nests — the tandem-run rate encodes quality), and a colony of 4,000 ants
// communicating through noisy pairwise-ish contacts (here: noisy PULL with
// h = n contact samples, 5% confusion per contact).  The colony must settle
// on the site with the most scouts — including convincing the scouts that
// assessed inferior sites.
//
// Build & run:  ./build/examples/house_hunting
#include <cstdio>
#include <iostream>

#include "noisypull/noisypull.hpp"

int main() {
  using namespace noisypull;

  // Four candidate nests; scout counts reflect assessed quality.
  // Nest 2 (7 scouts) is the colony's best option.
  KaryPopulation colony{.n = 4'000, .sources = {2, 4, 7, 3}};
  const double delta = 0.05;
  const auto noise = NoiseMatrix::uniform(4, delta);

  std::printf("colony of %llu ants; scouts per candidate nest: ",
              static_cast<unsigned long long>(colony.n));
  for (std::size_t o = 0; o < colony.sources.size(); ++o) {
    std::printf("%s#%zu: %llu", o ? ", " : "", o,
                static_cast<unsigned long long>(colony.sources[o]));
  }
  std::printf(
      "\nbest site: #%d (plurality margin %llu), contact noise %.0f%%\n\n",
      colony.plurality_opinion(),
      static_cast<unsigned long long>(colony.bias()), 100 * delta);

  KarySourceFilter protocol(colony, Holdings{colony.n}, Delta{delta});
  AggregateEngine engine;
  Rng rng(1906);  // Pratt et al. would approve of a fixed seed
  const auto result =
      run(protocol, engine, noise, colony.plurality_opinion(),
          RunConfig{.h = colony.n, .record_trajectory = true}, rng);

  std::printf("decision after %llu rounds: %s (%llu/%llu ants on site #%d)\n",
              static_cast<unsigned long long>(result.rounds_run),
              result.all_correct_at_end ? "unanimous" : "split",
              static_cast<unsigned long long>(result.correct_at_end),
              static_cast<unsigned long long>(colony.n),
              colony.plurality_opinion());

  // Scouts of inferior sites must concede (Definition 2 semantics).
  bool scouts_conceded = true;
  for (std::uint64_t i = 0; i < colony.num_sources(); ++i) {
    if (protocol.opinion(i) != colony.plurality_opinion()) {
      scouts_conceded = false;
    }
  }
  std::printf("scouts of inferior sites conceded: %s\n\n",
              scouts_conceded ? "yes" : "no");

  // How close can two sites' quality be?  Margin-1 decisions still work —
  // the paper's bias-1 guarantee, here in its k-ary form.
  std::printf("margin sensitivity (16 colonies per row):\n");
  Table table({"scouts per site", "margin", "success rate"});
  const std::vector<std::vector<std::uint64_t>> scenarios = {
      {5, 4, 3, 2}, {4, 5, 4, 4}, {1, 2, 1, 1}};
  for (const auto& scouts : scenarios) {
    KaryPopulation pop{.n = 2'000, .sources = scouts};
    int wins = 0;
    const int kColonies = 16;
    for (int c = 0; c < kColonies; ++c) {
      KarySourceFilter ksf(pop, Holdings{pop.n}, Delta{delta});
      AggregateEngine eng;
      Rng colony_rng(2000 + c);
      wins += run(ksf, eng, noise, pop.plurality_opinion(),
                  RunConfig{.h = pop.n}, colony_rng)
                  .all_correct_at_end
                  ? 1
                  : 0;
    }
    std::string label;
    for (std::size_t o = 0; o < scouts.size(); ++o) {
      if (o > 0) label += '/';
      label += std::to_string(scouts[o]);
    }
    table.cell(label)
        .cell(pop.bias())
        .cell(static_cast<double>(wins) / kColonies, 2)
        .end_row();
  }
  table.print(std::cout);
  std::printf("\na one-scout margin reliably decides the colony — investing\n"
              "in first-hand assessors (sources) beats relaying estimates,\n"
              "which is the paper's reading of the tandem-run strategy.\n");
  return result.all_correct_at_end ? 0 : 1;
}
