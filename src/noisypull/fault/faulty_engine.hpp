// FaultyEngine — an Engine decorator that injects runtime faults.
//
// Wraps any existing engine (Exact, Aggregate, Sequential)
// and realizes a FaultPlan per round without the inner engine knowing:
//
//   * Byzantine displays, crash stalls and drops are applied through a
//     PullProtocol proxy handed to the inner engine — display() is forged
//     for Byzantine agents and update() is swallowed for stalled agents /
//     binomially thinned for drops, so every engine's sampling logic works
//     unchanged.  The proxy also forwards the bulk hooks (core/protocol.hpp)
//     over the agents it leaves alone: displays() forges only the Byzantine
//     suffix, update_run() hands each run of live agents to the inner
//     protocol (a drop plan, which rewrites everyone's counts, takes the
//     per-agent loop).  Fault knowledge stays here: the engines and the
//     compiled population below see an ordinary protocol,
//   * noise bursts swap the channel matrix passed down for the burst rounds
//     (an AggregateEngine with per-agent channels ignores that matrix, so
//     bursts do not reach it).
//
// Determinism contract: fault decisions come from substreams of the plan's
// own seed, keyed by (round, agent) where per-agent, so the realized fault
// schedule is identical across engines and activation orders; the run Rng is
// never touched by the fault layer.  With FaultPlan::any() == false the
// decorator forwards the step verbatim — bit-for-bit identical to running
// the inner engine directly (tests/test_fault.cpp holds this as the
// identity requirement).
//
// Composition: FaultyEngine is itself an Engine, so it drops into run(),
// measure_steady_state(), and run_with_churn() unchanged — churn resets and
// runtime faults compose by passing a FaultyEngine to the churn runner.
#pragma once

// <atomic> is allowlisted here by tools/noisypull_lint.cpp's threading-header
// rule: the fault proxy's event counters are incremented from the inner
// engine's block-parallel update phase (model/engine.hpp), so they must be
// race-free.  Relaxed additions of non-negative event counts commute, which
// keeps the totals deterministic across thread counts.
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "noisypull/fault/fault_plan.hpp"
#include "noisypull/model/engine.hpp"

namespace noisypull {

// Counters of realized fault events, for reporting and tests.
struct FaultStats {
  std::uint64_t byzantine_agents = 0;   // current Byzantine-set size
  std::uint64_t crashes = 0;            // random crash events
  std::uint64_t stalled_updates = 0;    // update calls swallowed by stalls
  std::uint64_t dropped_observations = 0;
  std::uint64_t burst_rounds = 0;       // rounds run under spiked noise
};

class FaultyEngine final : public Engine {
 public:
  // Non-owning: `inner` must outlive the decorator.
  FaultyEngine(Engine& inner, FaultPlan plan);

  void step(PullProtocol& protocol, const NoiseMatrix& noise, Holdings h,
            std::uint64_t round, Rng& rng) override;
  void set_artificial_noise(std::optional<Matrix> p) override;

  // The decorator never steps agents itself: thread-count and compiled
  // toggles belong to the inner engine doing the work.  The proxy offers no
  // compiled_access(), so the toggle never lets the inner engine bypass it.
  // The compiled forwarding serves perfbench and the identity tests only
  // and goes with Engine::set_compiled (ROADMAP, run telemetry).
  void set_threads(unsigned lanes) override { inner_.set_threads(lanes); }
  unsigned threads() const noexcept override { return inner_.threads(); }
  void set_compiled(bool enabled) override { inner_.set_compiled(enabled); }
  bool compiled() const noexcept override { return inner_.compiled(); }

  // The inner engine runs against the fault proxy, so its digest observes
  // the *decorated* (forged) displays — exactly what a replay must
  // reproduce.
  std::uint64_t replay_digest() const noexcept override {
    return inner_.replay_digest();
  }
  DisplayFoldStats display_fold_stats() const noexcept override {
    return inner_.display_fold_stats();
  }

  const FaultPlan& plan() const noexcept { return plan_; }
  const FaultStats& stats() const noexcept { return stats_; }

  // Fault-set membership, exposed for tests and reporting.  Stall state is
  // as of the most recently executed round.
  bool is_byzantine(std::uint64_t agent) const noexcept;
  bool is_stalled(std::uint64_t agent) const noexcept;

 private:
  friend class FaultedProtocolView;

  void bind_population(std::uint64_t n, std::size_t alphabet);
  void advance_stall_schedule(std::uint64_t round);
  Symbol byzantine_display(std::uint64_t round) const noexcept;

  Engine& inner_;
  FaultPlan plan_;
  FaultStats stats_;
  // Counters the proxy bumps from inside the (possibly parallel) update
  // phase; folded into stats_ after each step.  The folded totals are
  // order-independent sums, hence identical for every thread count.
  std::atomic<std::uint64_t> stalled_updates_accum_{0};
  std::atomic<std::uint64_t> dropped_accum_{0};

  std::uint64_t n_ = 0;            // population bound at first step
  std::uint64_t byz_count_ = 0;    // Byzantine set = agents [n − count, n)
  std::uint64_t current_round_ = 0;
  std::vector<std::uint64_t> stalled_until_;  // per agent, exclusive bound
  std::uint64_t burst_until_ = 0;
  bool validated_ = false;
};

}  // namespace noisypull
