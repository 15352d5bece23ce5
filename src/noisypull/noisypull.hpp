// Umbrella header: the full public API of the noisypull library.
//
// Quickstart:
//   PopulationConfig pop{.n = 10'000, .s1 = 1, .s0 = 0};
//   NoiseMatrix noise = NoiseMatrix::uniform(2, 0.2);
//   SourceFilter sf(pop, /*h=*/pop.n, /*delta=*/0.2);
//   AggregateEngine engine;
//   Rng rng(42);
//   RunResult r = run(sf, engine, noise, pop.correct_opinion(),
//                     RunConfig{.h = pop.n}, rng);
#pragma once

#include "noisypull/analysis/scheduler.hpp"
#include "noisypull/analysis/stats.hpp"
#include "noisypull/analysis/sweep.hpp"
#include "noisypull/analysis/table.hpp"
#include "noisypull/common/symbols.hpp"
#include "noisypull/common/thread_pool.hpp"
#include "noisypull/common/units.hpp"
#include "noisypull/baselines/majority_dynamics.hpp"
#include "noisypull/baselines/repeated_majority.hpp"
#include "noisypull/baselines/voter.hpp"
#include "noisypull/core/automaton/automaton.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/automaton/protocol_automata.hpp"
#include "noisypull/core/kary.hpp"
#include "noisypull/core/schedule.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/core/ssf.hpp"
#include "noisypull/core/variants.hpp"
#include "noisypull/fault/fault_plan.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/linalg/lu.hpp"
#include "noisypull/linalg/matrix.hpp"
#include "noisypull/core/protocol.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/noise/noise_matrix.hpp"
#include "noisypull/noise/reduction.hpp"
#include "noisypull/push/push_engine.hpp"
#include "noisypull/push/push_protocol.hpp"
#include "noisypull/push/push_spread.hpp"
#include "noisypull/rng/binomial.hpp"
#include "noisypull/rng/observation_cache.hpp"
#include "noisypull/rng/rng.hpp"
#include "noisypull/sim/adversary.hpp"
#include "noisypull/sim/churn.hpp"
#include "noisypull/sim/lumped_engine.hpp"
#include "noisypull/sim/runner.hpp"
#include "noisypull/theory/bounds.hpp"
#include "noisypull/theory/exact_chain.hpp"
#include "noisypull/theory/two_party.hpp"
