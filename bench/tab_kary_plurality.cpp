// KARY — the multi-valued extension: the paper's problem statement assumes
// binary opinions "for simplicity"; KarySourceFilter generalizes the SF
// design (neutral cover phases + plurality boosting) to k opinions.  This
// bench validates plurality convergence across k, bias, and conflict
// patterns, and shows how the (1−kδ) margin shrinks the admissible noise.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace noisypull;
  using namespace noisypull::bench;
  const auto args = BenchArgs::parse(argc, argv);

  header("KARY / tab_kary_plurality",
         "k-ary Source Filter: convergence to the strict plurality among "
         "multi-valued sources (binary is the paper's k = 2 special case).");

  const std::uint64_t n = 2000;
  const std::uint64_t reps = 8;

  Table table({"k", "delta", "sources", "bias", "success", "rounds T"});
  struct Case {
    std::vector<std::uint64_t> sources;
    double delta;
  };
  const Case cases[] = {
      {{0, 1}, 0.2},           // binary, single source (SF's regime)
      {{1, 2}, 0.2},           // binary conflict, bias 1
      {{0, 0, 1}, 0.1},        // 3 opinions, single source
      {{1, 2, 1}, 0.1},        // 3 opinions, bias 1
      {{4, 1, 2}, 0.1},        // 3 opinions, clear plurality
      {{0, 0, 0, 1}, 0.06},    // 4 opinions, single source
      {{3, 2, 2, 1}, 0.06},    // 4 opinions, bias 1 with full conflict
      {{2, 1, 1, 1, 1, 1}, 0.04},  // 6 opinions, bias 1
  };
  for (const auto& c : cases) {
    KaryPopulation pop{.n = n, .sources = c.sources};
    const auto noise =
        NoiseMatrix::uniform(pop.num_opinions(), c.delta);
    std::uint64_t ok = 0;
    double t = 0.0;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      KarySourceFilter ksf(pop, Holdings{n}, Delta{c.delta}, kC1);
      AggregateEngine engine;
      Rng rng(17000 + rep * 31 + pop.num_opinions());
      const auto r = run(ksf, engine, noise, pop.plurality_opinion(),
                         RunConfig{.h = n}, rng);
      ok += r.all_correct_at_end ? 1 : 0;
      t = static_cast<double>(r.rounds_run);
    }
    std::string sources_str;
    for (std::size_t i = 0; i < c.sources.size(); ++i) {
      if (i > 0) sources_str += '/';
      sources_str += std::to_string(c.sources[i]);
    }
    table.cell(static_cast<std::uint64_t>(pop.num_opinions()))
        .cell(c.delta, 2)
        .cell(sources_str)
        .cell(pop.bias())
        .cell(static_cast<double>(ok) / static_cast<double>(reps), 2)
        .cell(t, 0)
        .end_row();
  }
  args.emit(table);
  std::printf(
      "expected shape: success ~1 for every k at bias >= 1, with the\n"
      "admissible delta shrinking like 1/k (the (1-k*delta) margin) and T\n"
      "growing with k and with conflict.\n");
  return 0;
}
