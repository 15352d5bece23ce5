// Simulation run loop and convergence measurement (Definition 2).
//
// A run executes a protocol under an engine for a given number of rounds and
// reports when (if ever) the whole population — sources included — holds the
// correct opinion, and whether that consensus then persists through an
// optional stability window (the "remains with it" part of the paper's
// self-stabilizing convergence definition).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "noisypull/common/cancel.hpp"
#include "noisypull/common/check.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/core/protocol.hpp"
#include "noisypull/push/push_engine.hpp"

namespace noisypull {

inline constexpr std::uint64_t kNever =
    std::numeric_limits<std::uint64_t>::max();

struct RunConfig {
  std::uint64_t h = 1;  // sample size of the PULL(h) model

  // Rounds to execute; 0 means "use protocol.planned_rounds()" (which must
  // then be non-zero).
  std::uint64_t max_rounds = 0;

  // Extra rounds executed after max_rounds during which consensus must hold
  // every round for the run to count as stable.  0 disables the check.
  std::uint64_t stability_window = 0;

  // Record, for every executed round, how many agents hold the correct
  // opinion (used by the boosting-trajectory experiment).
  bool record_trajectory = false;

  // Execution lanes for the engine's block-parallel round phase
  // (Engine::set_threads); 0 leaves the engine's current setting untouched.
  // Trajectory-invariant — only wall-clock changes.  Ignored by engines
  // without the knob (PushEngine, SequentialEngine).
  unsigned engine_threads = 0;

  // Enables the compiled fast path (Engine::set_compiled, DESIGN.md §13) —
  // effective only when the protocol exposes a CompiledPopulation.
  // Trajectory-invariant like engine_threads, and excluded from the
  // experiment cache key for the same reason.  Ignored by engines without
  // the knob.  Only perfbench's traced and untraced runs set it (see
  // Engine::set_compiled); it goes with them once the library owns run
  // telemetry (ROADMAP).
  bool compiled = false;

  // Polled once per round; when set, the run unwinds with
  // OperationCancelled.  Used by the scheduler's --rep-timeout watchdog.
  // Trajectory-invariant while unset: a run that completes was never
  // cancelled, so its statistics cannot depend on the token.
  const CancelToken* cancel = nullptr;
};

struct RunResult {
  bool all_correct_at_end = false;
  bool stable = false;  // meaningful only if stability_window > 0
  std::uint64_t rounds_run = 0;

  // First round index r such that all opinions were correct at the end of
  // every round from r through the end of the run (kNever if none).
  std::uint64_t first_all_correct = kNever;

  std::uint64_t correct_at_end = 0;       // # agents correct after last round
  std::vector<std::uint64_t> trajectory;  // per-round correct counts (opt-in)
};

namespace detail {

// Definition 2's bookkeeping, shared by run(), run_push() and run_lumped():
// runs cfg.max_rounds rounds (`planned` when that is 0), records the
// trajectory and the start of the final all-correct streak, then requires
// consensus through cfg.stability_window extra rounds.  `step(t)` executes
// round t and `count()` returns how many of the `n` agents hold the correct
// opinion; both are template parameters so the per-round calls inline.
template <typename Step, typename Count>
RunResult run_rounds(std::uint64_t planned, std::uint64_t n,
                     const RunConfig& cfg, Step&& step, Count&& count) {
  const std::uint64_t rounds = cfg.max_rounds != 0 ? cfg.max_rounds : planned;
  NOISYPULL_CHECK(rounds > 0,
                  "max_rounds is 0 and the run has no planned horizon");

  RunResult result;
  if (cfg.record_trajectory) result.trajectory.reserve(rounds);
  const auto poll_cancel = [&] {
    if (cfg.cancel != nullptr && cfg.cancel->cancelled()) {
      throw OperationCancelled();
    }
  };

  std::uint64_t streak_start = kNever;  // start of the current all-correct run
  for (std::uint64_t t = 0; t < rounds; ++t) {
    poll_cancel();
    step(t);
    const std::uint64_t good = count();
    if (cfg.record_trajectory) result.trajectory.push_back(good);
    if (good == n) {
      if (streak_start == kNever) streak_start = t;
    } else {
      streak_start = kNever;
    }
  }
  result.rounds_run = rounds;
  result.correct_at_end = count();
  result.all_correct_at_end = result.correct_at_end == n;
  result.first_all_correct = streak_start;

  if (cfg.stability_window > 0) {
    bool held = result.all_correct_at_end;
    for (std::uint64_t t = rounds; held && t < rounds + cfg.stability_window;
         ++t) {
      poll_cancel();
      step(t);
      held = count() == n;
      ++result.rounds_run;
    }
    result.stable = held;
  }
  return result;
}

}  // namespace detail

// Number of agents currently holding `correct`.
std::uint64_t count_correct(const PullProtocol& protocol, Opinion correct);
std::uint64_t count_correct(const PushProtocol& protocol, Opinion correct);

// Executes the run.  `correct` is the ground-truth opinion the population
// must converge to (PopulationConfig::correct_opinion() in all experiments).
RunResult run(PullProtocol& protocol, Engine& engine, const NoiseMatrix& noise,
              Opinion correct, const RunConfig& cfg, Rng& rng);

// PUSH-model counterpart of run(); cfg.h is the per-sender fan-out.
RunResult run_push(PushProtocol& protocol, PushEngine& engine,
                   const NoiseMatrix& noise, Opinion correct,
                   const RunConfig& cfg, Rng& rng);

// Steady-state measurement for runs under ongoing perturbation (churn,
// runtime faults): perfect, permanent consensus is unattainable there, so
// the meaningful metric is the correct fraction once the dynamics has
// equilibrated.
struct SteadyStateResult {
  std::uint64_t rounds_run = 0;
  double mean_correct_fraction = 0.0;   // averaged over the measure window
  double min_correct_fraction = 1.0;    // worst round in the measure window
  double final_correct_fraction = 0.0;  // after the last round
};

// Invoked before every round (round index, run rng).  The churn runner
// injects per-round resets through this hook; fault experiments can add
// custom interventions.  Faults injected by a FaultyEngine need no hook —
// the engine decorator applies them inside step().
using RoundHook = std::function<void(std::uint64_t, Rng&)>;

// Runs `warmup + measure` rounds; statistics are taken over the final
// `measure` rounds (the steady state).  Requires measure >= 1.
SteadyStateResult measure_steady_state(PullProtocol& protocol, Engine& engine,
                                       const NoiseMatrix& noise,
                                       Opinion correct, Holdings h,
                                       std::uint64_t warmup,
                                       std::uint64_t measure, Rng& rng,
                                       const RoundHook& pre_round = {},
                                       const CancelToken* cancel = nullptr);

}  // namespace noisypull
