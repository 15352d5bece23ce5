#include "noisypull/sim/lumped_engine.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "noisypull/common/check.hpp"
#include "noisypull/common/fnv.hpp"
#include "noisypull/common/overflow.hpp"
#include "noisypull/core/automaton/protocol_automata.hpp"
#include "noisypull/rng/binomial.hpp"

namespace noisypull {

LumpedEngine::LumpedEngine(std::vector<LumpedClass> classes)
    : digest_(fnv::kOffsetBasis) {
  NOISYPULL_CHECK(!classes.empty(), "lumped engine needs at least one class");
  for (const LumpedClass& cls : classes) {
    NOISYPULL_CHECK(cls.count.get() >= 1, "empty lumped class");
    NOISYPULL_CHECK(cls.automaton != nullptr, "class needs an automaton");
    const std::size_t d = cls.automaton->alphabet_size();
    if (d_ == 0) d_ = d;
    NOISYPULL_CHECK(d == d_, "all classes must share one alphabet");
    NOISYPULL_CHECK(cls.channel.rows() == d_ && cls.channel.cols() == d_,
                    "class channel does not match the alphabet");
    NOISYPULL_CHECK(cls.channel.is_stochastic(),
                    "class channel must be row-stochastic");
    if (cls.forged.kind != DisplayOverride::Kind::None) {
      NOISYPULL_CHECK(cls.forged.even < d_ && cls.forged.odd < d_,
                      "forged display outside the alphabet");
    }
    n_ = checked_add(n_, cls.count.get(),
                     "total lumped population overflows 64 bits");
    ClassState cs;
    cs.cls = cls;
    cs.effective = cls.channel;
    cs.hist = {{cls.initial, cls.count.get()}};
    classes_.push_back(std::move(cs));
  }
  NOISYPULL_CHECK(d_ >= 2 && d_ <= kMaxAlphabet, "unsupported alphabet size");
}

void LumpedEngine::set_artificial_noise(std::optional<Matrix> p) {
  if (p.has_value()) {
    NOISYPULL_CHECK(p->rows() == d_ && p->cols() == d_,
                    "artificial noise does not match the alphabet");
    NOISYPULL_CHECK(p->is_stochastic(),
                    "artificial noise must be row-stochastic");
  }
  artificial_ = std::move(p);
  rebuild_effective();
}

void LumpedEngine::rebuild_effective() {
  for (ClassState& cs : classes_) {
    cs.effective =
        artificial_.has_value() ? cs.cls.channel * *artificial_ : cs.cls.channel;
  }
}

std::vector<std::uint64_t> LumpedEngine::display_histogram(
    std::uint64_t round) const {
  std::vector<std::uint64_t> c(d_, 0);
  for (const ClassState& cs : classes_) {
    const DisplayOverride& forged = cs.cls.forged;
    if (forged.kind != DisplayOverride::Kind::None) {
      const Symbol s = (forged.kind == DisplayOverride::Kind::Constant ||
                        round % 2 == 0)
                           ? forged.even
                           : forged.odd;
      c[s] = invariant_add(c[s], cs.cls.count.get());
      continue;
    }
    for (const auto& [state, count] : cs.hist) {
      const Symbol s = cs.cls.automaton->display(state, round);
      NOISYPULL_ASSERT(s < d_);
      c[s] = invariant_add(c[s], count);
    }
  }
  return c;
}

std::vector<double> LumpedEngine::observation_law(
    const ClassState& cs, const std::vector<std::uint64_t>& c) const {
  // q[to] ∝ Σ_from c[from]·channel(from, to); passed to the sampler
  // unnormalized (it normalizes internally), matching AggregateEngine.
  std::vector<double> q(d_, 0.0);
  for (std::size_t from = 0; from < d_; ++from) {
    if (c[from] == 0) continue;
    const double weight = static_cast<double>(c[from]);
    for (std::size_t to = 0; to < d_; ++to) {
      q[to] += weight * cs.effective(from, to);
    }
  }
  return q;
}

std::uint64_t LumpedEngine::count_correct(Opinion correct) const {
  std::uint64_t good = 0;
  for (const ClassState& cs : classes_) {
    for (const auto& [state, count] : cs.hist) {
      if (cs.cls.automaton->opinion(state) == correct) {
        good = invariant_add(good, count);
      }
    }
  }
  return good;
}

std::size_t LumpedEngine::support_size() const noexcept {
  std::size_t occupied = 0;
  for (const ClassState& cs : classes_) occupied += cs.hist.size();
  return occupied;
}

void LumpedEngine::step(Holdings h, std::uint64_t round, Rng& rng) {
  NOISYPULL_CHECK(h.get() >= 1, "lumped step needs h >= 1");
  const std::vector<std::uint64_t> c = display_histogram(round);
  digest_ = fnv::hash_u64(digest_, round);
  for (const std::uint64_t count : c) digest_ = fnv::hash_u64(digest_, count);

  // One draw from the master stream per round; class i samples on the
  // substream Rng(round_key, i) — the engines' counter-substream discipline.
  const std::uint64_t round_key = rng.next();

  std::vector<double> law_weights;
  std::vector<std::uint64_t> law_counts;
  for (std::size_t ci = 0; ci < classes_.size(); ++ci) {
    ClassState& cs = classes_[ci];
    if (cs.cls.stall.active(round)) continue;  // stale displays stay visible
    Rng class_rng(round_key, static_cast<std::uint64_t>(ci));

    const std::vector<double> q = observation_law(cs, c);
    // Amortization gate fed the whole class count: the split path needs the
    // enumerable outcome space, and every occupied state of the class reuses
    // this one per-round reset.  No table: neither split() nor the
    // Decomposition fallback reads it.
    sampler_.reset(h.get(), q, /*cache=*/false, cs.cls.count.get());

    std::map<AutomatonState, std::uint64_t> next;
    const auto land = [&](AutomatonState state, std::uint64_t count) {
      auto [it, inserted] = next.emplace(state, count);
      if (!inserted) it->second = invariant_add(it->second, count);
    };
    // Splits `share` agents over the transition law with one multinomial.
    const auto transition_split = [&](AutomatonState state, std::uint64_t share,
                                      const SymbolCounts& obs) {
      const std::vector<WeightedState> law =
          cs.cls.automaton->transition(state, round, obs);
      NOISYPULL_ASSERT(!law.empty());
      if (law.size() == 1) {
        land(law[0].state, share);
        return;
      }
      law_weights.resize(law.size());
      law_counts.resize(law.size());
      for (std::size_t i = 0; i < law.size(); ++i) {
        law_weights[i] = law[i].prob;
      }
      sample_multinomial(class_rng, share, law_weights, law_counts);
      for (std::size_t i = 0; i < law.size(); ++i) {
        if (law_counts[i] > 0) land(law[i].state, law_counts[i]);
      }
    };

    SymbolCounts obs(d_);
    for (const auto& [state, count] : cs.hist) {
      if (sampler_.mode() == ObservationSampler::Mode::InverseCdf) {
        // Population-level path: one multinomial split of the count over the
        // outcome space, then one split per outcome bucket over the law.
        sampler_.split(class_rng, count,
                       [&](std::uint64_t share,
                           std::span<const std::uint64_t> counts) {
                         for (std::size_t s = 0; s < d_; ++s) {
                           obs.c[s] = counts[s];
                         }
                         transition_split(state, share, obs);
                       });
      } else {
        // Outcome space too large to enumerate (or h beyond the table cap):
        // per-agent fallback, identical in distribution to AggregateEngine's
        // per-agent draws.  O(count) — only reachable when the gate judged
        // the class count smaller than the outcome space, or for huge-h
        // configurations the lumped engine is not meant for.
        for (std::uint64_t a = 0; a < count; ++a) {
          sampler_.sample(class_rng, obs);
          const std::vector<WeightedState> law =
              cs.cls.automaton->transition(state, round, obs);
          NOISYPULL_ASSERT(!law.empty());
          const double u = class_rng.next_double();
          double acc = 0.0;
          AutomatonState target = law.back().state;
          for (const WeightedState& ws : law) {
            acc += ws.prob;
            if (u < acc) {
              target = ws.state;
              break;
            }
          }
          land(target, 1);
        }
      }
    }

    cs.hist.assign(next.begin(), next.end());
  }
}

RunResult run_lumped(LumpedEngine& engine, Opinion correct,
                     const RunConfig& cfg, Rng& rng) {
  return detail::run_rounds(
      engine.planned_rounds(), engine.num_agents(), cfg,
      [&](std::uint64_t t) { engine.step(Holdings{cfg.h}, t, rng); },
      [&] { return engine.count_correct(correct); });
}

LumpedSetup make_lumped_sf(const PopulationConfig& pop,
                           const SfSchedule& schedule,
                           const NoiseMatrix& noise) {
  pop.validate();
  NOISYPULL_CHECK(noise.alphabet_size() == 2,
                  "SF runs on the binary alphabet");
  LumpedSetup setup;
  std::vector<LumpedClass> classes;
  const auto add_class = [&](std::uint64_t count, bool is_source,
                             Opinion preference) {
    if (count == 0) return;
    setup.automata.push_back(
        std::make_unique<SfAutomaton>(schedule, is_source, preference));
    classes.push_back({.count = AgentCount{count},
                       .automaton = setup.automata.back().get(),
                       .initial = setup.automata.back()->initial_state(),
                       .channel = noise.matrix(),
                       .forged = DisplayOverride::none(),
                       .stall = {}});
  };
  add_class(pop.s1, true, 1);
  add_class(pop.s0, true, 0);
  add_class(pop.n - pop.s1 - pop.s0, false, 0);
  setup.engine = std::make_unique<LumpedEngine>(std::move(classes));
  setup.engine->set_planned_rounds(schedule.total_rounds());
  return setup;
}

LumpedSetup make_lumped_ssf(const PopulationConfig& pop, Holdings h,
                            MemoryBudget m, const NoiseMatrix& noise) {
  pop.validate();
  NOISYPULL_CHECK(noise.alphabet_size() == 4,
                  "SSF runs on the {0,1}^2 alphabet");
  NOISYPULL_CHECK(h.get() >= 1, "SSF needs h >= 1");
  LumpedSetup setup;
  std::vector<LumpedClass> classes;
  const auto add_class = [&](std::uint64_t count, bool is_source,
                             Opinion preference) {
    if (count == 0) return;
    setup.automata.push_back(
        std::make_unique<SsfAutomaton>(m, is_source, preference));
    classes.push_back({.count = AgentCount{count},
                       .automaton = setup.automata.back().get(),
                       .initial = 0,
                       .channel = noise.matrix(),
                       .forged = DisplayOverride::none(),
                       .stall = {}});
  };
  add_class(pop.s1, true, 1);
  add_class(pop.s0, true, 0);
  add_class(pop.n - pop.s1 - pop.s0, false, 0);
  setup.engine = std::make_unique<LumpedEngine>(std::move(classes));
  // SelfStabilizingSourceFilter::convergence_deadline with the same cycle
  // arithmetic: all agents past their third update plus one absorbing cycle.
  const std::uint64_t cycle = (m.get() + h.get() - 1) / h.get();
  setup.engine->set_planned_rounds(4 * cycle + 1);
  return setup;
}

}  // namespace noisypull
