#include "noisypull/sim/runner.hpp"

#include <algorithm>

#include "noisypull/common/check.hpp"

namespace noisypull {

std::uint64_t count_correct(const PullProtocol& protocol, Opinion correct) {
  return protocol.count_opinion(correct);
}

std::uint64_t count_correct(const PushProtocol& protocol, Opinion correct) {
  std::uint64_t count = 0;
  const std::uint64_t n = protocol.num_agents();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (protocol.opinion(i) == correct) ++count;
  }
  return count;
}

namespace {

// The PULL and PUSH engines expose the same step() signature; the lanes and
// compiled toggles are set here, the bookkeeping is detail::run_rounds.
template <typename Protocol, typename EngineT>
RunResult run_impl(Protocol& protocol, EngineT& engine,
                   const NoiseMatrix& noise, Opinion correct,
                   const RunConfig& cfg, Rng& rng) {
  if (cfg.engine_threads != 0) {
    // PushEngine has no block-parallel kernel; the constraint keeps the
    // shared loop compiling for both engine families.
    if constexpr (requires { engine.set_threads(cfg.engine_threads); }) {
      engine.set_threads(cfg.engine_threads);
    }
  }
  if (cfg.compiled) {
    if constexpr (requires { engine.set_compiled(true); }) {
      engine.set_compiled(true);
    }
  }
  return detail::run_rounds(
      protocol.planned_rounds(), protocol.num_agents(), cfg,
      [&](std::uint64_t t) {
        engine.step(protocol, noise, Holdings{cfg.h}, t, rng);
      },
      [&] { return count_correct(protocol, correct); });
}

}  // namespace


RunResult run(PullProtocol& protocol, Engine& engine, const NoiseMatrix& noise,
              Opinion correct, const RunConfig& cfg, Rng& rng) {
  return run_impl(protocol, engine, noise, correct, cfg, rng);
}

RunResult run_push(PushProtocol& protocol, PushEngine& engine,
                   const NoiseMatrix& noise, Opinion correct,
                   const RunConfig& cfg, Rng& rng) {
  return run_impl(protocol, engine, noise, correct, cfg, rng);
}

SteadyStateResult measure_steady_state(PullProtocol& protocol, Engine& engine,
                                       const NoiseMatrix& noise,
                                       Opinion correct, Holdings h,
                                       std::uint64_t warmup,
                                       std::uint64_t measure, Rng& rng,
                                       const RoundHook& pre_round,
                                       const CancelToken* cancel) {
  NOISYPULL_CHECK(measure >= 1, "need at least one measured round");

  const double n = static_cast<double>(protocol.num_agents());
  SteadyStateResult result;
  double fraction_sum = 0.0;
  double fraction = 0.0;
  for (std::uint64_t t = 0; t < warmup + measure; ++t) {
    if (cancel != nullptr && cancel->cancelled()) {
      throw OperationCancelled();
    }
    if (pre_round) pre_round(t, rng);
    engine.step(protocol, noise, h, t, rng);
    if (t >= warmup) {
      fraction = static_cast<double>(count_correct(protocol, correct)) / n;
      fraction_sum += fraction;
      result.min_correct_fraction =
          std::min(result.min_correct_fraction, fraction);
    }
    ++result.rounds_run;
  }
  result.mean_correct_fraction = fraction_sum / static_cast<double>(measure);
  result.final_correct_fraction = fraction;
  return result;
}

}  // namespace noisypull
