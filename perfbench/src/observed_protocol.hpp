// ObservedProtocol — a forwarding PullProtocol decorator that counts the
// updates delivered through the virtual (per-agent) path.
//
// It forwards every call, compiled_access() included, so an engine running
// the compiled fast path still reaches the inner CompiledPopulation and
// calls it directly: only rounds the engine runs through the virtual path
// (build gate declined, Decomposition sampler, or an interpreted protocol)
// reach update() here.  A round with zero virtual updates under the
// compiled toggle therefore ran compiled.  Forwarding leaves every draw and
// the replay digest unchanged (pinned by tests/test_perfbench.cpp).
//
// update() runs concurrently for distinct agents (core/protocol.hpp).  The
// count lives in one cache-line-padded slot per 4096-agent engine block
// (Engine::kBlockSize, model/engine.hpp): a block runs on one lane at a
// time and rounds are separated by the pool's barrier, so a relaxed
// load + store per update suffices and costs about what a plain increment
// does.  Were engine blocks ever to straddle slots, concurrent increments
// could be lost (never undefined behaviour), and the test that pins the
// count across lane counts would catch it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "noisypull/core/protocol.hpp"

namespace perfbench {

class ObservedProtocol final : public noisypull::PullProtocol {
 public:
  // on_destroy (optional) runs in the destructor — the sweep closes each
  // repetition's span there, when the scheduler drops the protocol.
  using OnDestroy = std::function<void(const ObservedProtocol&)>;
  explicit ObservedProtocol(std::unique_ptr<noisypull::PullProtocol> inner,
                            OnDestroy on_destroy = {})
      : inner_(std::move(inner)),
        on_destroy_(std::move(on_destroy)),
        slots_((inner_->num_agents() >> kSlotShift) + 1) {}
  ~ObservedProtocol() override {
    if (on_destroy_) on_destroy_(*this);
  }
  ObservedProtocol(const ObservedProtocol&) = delete;
  ObservedProtocol& operator=(const ObservedProtocol&) = delete;
  ObservedProtocol(ObservedProtocol&&) = delete;
  ObservedProtocol& operator=(ObservedProtocol&&) = delete;

  std::size_t alphabet_size() const override {
    return inner_->alphabet_size();
  }
  std::uint64_t num_agents() const override { return inner_->num_agents(); }
  noisypull::Symbol display(std::uint64_t agent,
                            std::uint64_t round) const override {
    return inner_->display(agent, round);
  }
  void update(std::uint64_t agent, std::uint64_t round,
              const noisypull::SymbolCounts& obs,
              noisypull::Rng& rng) override {
    std::atomic<std::uint64_t>& c = slots_[agent >> kSlotShift].count;
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    inner_->update(agent, round, obs, rng);
  }
  noisypull::Opinion opinion(std::uint64_t agent) const override {
    return inner_->opinion(agent);
  }
  std::uint64_t planned_rounds() const override {
    return inner_->planned_rounds();
  }
  noisypull::CompiledAccess compiled_access() override {
    return inner_->compiled_access();
  }

  noisypull::PullProtocol& inner() noexcept { return *inner_; }

  // Updates delivered through update() so far.  Read between rounds.
  std::uint64_t virtual_updates() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.count.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr unsigned kSlotShift = 12;  // 4096 agents per slot
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> count{0};
  };

  std::unique_ptr<noisypull::PullProtocol> inner_;
  OnDestroy on_destroy_;
  std::vector<Slot> slots_;
};

}  // namespace perfbench
