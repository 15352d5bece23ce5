// A steady-state engine round allocates nothing.
//
// Its own binary: it replaces the global operator new with a counting one.
// Every buffer a round needs (both display buffers, the samplers' tables,
// the channel groups and channel products, the compiled population's
// rules) is sized on its first use and reused, and neither the block loop
// nor the pool hand-off type-erases anything that would not fit inline.
// After a warm-up, 1000 further rounds must count zero allocations — for
// AggregateEngine at one lane and at four, interpreted and compiled, under
// an InverseCdf and a Decomposition sampler; for ExactEngine at one lane
// and at four; for SequentialEngine; and for each of them at one lane
// under artificial noise.  The interpreted warm-up reaches every SF phase; the compiled one
// is a single listening round, so the window crosses every phase change:
// the population asks for each round's rule afresh and must not allocate
// for it, and the display phase fills its second buffer for the first
// time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/schedule.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/model/engine.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace noisypull {
namespace {

// Two full engine blocks and a ragged third, so four lanes share work.
constexpr std::uint64_t kN = 2 * 4096 + 100;
constexpr PopulationConfig kPop{.n = kN, .s1 = 60, .s0 = 0};
constexpr double kDelta = 0.2;
constexpr std::uint64_t kMeasuredRounds = 1000;

// 200 listening rounds, twenty 50-round sub-phases and a 50-round final
// one: the interpreted warm-up (listening and the first sub-phase) reaches
// every kind of round the measured window [250, 1250) runs; the compiled
// window [1, 1001) starts before the first phase change (round 100).
SfSchedule schedule_for(std::uint64_t h) {
  return {.h = h,
          .m = 100 * h,
          .phase_rounds = 100,
          .w = 50 * h,
          .subphase_rounds = 50,
          .num_subphases = 20,
          .final_rounds = 50};
}
constexpr std::uint64_t kWarmupRounds = 250;
constexpr std::uint64_t kCompiledWarmupRounds = 1;

// Allocations during kMeasuredRounds rounds of `engine` after `warmup`.
std::uint64_t steady_state_allocations(PullProtocol& protocol, Engine& engine,
                                       std::uint64_t h, std::uint64_t warmup) {
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(17);
  std::uint64_t r = 0;
  for (; r < warmup; ++r) {
    engine.step(protocol, noise, Holdings{h}, r, rng);
  }
  const std::uint64_t before = g_allocations.load();
  for (; r < warmup + kMeasuredRounds; ++r) {
    engine.step(protocol, noise, Holdings{h}, r, rng);
  }
  return g_allocations.load() - before;
}

TEST(RoundAllocations, SteadyStateRoundsAllocateNothing) {
  // h = 16 keeps the inverse-CDF table; h = n falls back to Decomposition.
  for (const std::uint64_t h : {std::uint64_t{16}, kN}) {
    const SfSchedule schedule = schedule_for(h);
    ASSERT_GE(schedule.total_rounds(), kWarmupRounds + kMeasuredRounds);
    for (const unsigned lanes : {1u, 4u}) {
      for (const bool compiled : {false, true}) {
        const std::string label = "h = " + std::to_string(h) + ", " +
                                  std::to_string(lanes) + " lanes, " +
                                  (compiled ? "compiled" : "interpreted");
        std::unique_ptr<PullProtocol> protocol;
        if (compiled) {
          protocol = make_compiled_sf(kPop, schedule);
        } else {
          protocol = std::make_unique<SourceFilter>(kPop, schedule);
        }
        AggregateEngine engine;
        engine.set_compiled(compiled);
        engine.set_threads(lanes);
        EXPECT_EQ(steady_state_allocations(
                      *protocol, engine, h,
                      compiled ? kCompiledWarmupRounds : kWarmupRounds),
                  0u)
            << label;
      }
    }
  }
  // The exact and sequential engines at h = 16 (the exact engine draws n·h
  // messages a round), and every agent engine under artificial noise,
  // whose channel product is formed in a reused buffer.
  const SfSchedule schedule = schedule_for(16);
  const Matrix artificial = NoiseMatrix::uniform(2, 0.1).matrix();
  for (const bool with_artificial : {false, true}) {
    const std::string suffix = with_artificial ? ", artificial noise" : "";
    for (const unsigned lanes : {1u, 4u}) {
      if (with_artificial && lanes > 1) continue;
      SourceFilter protocol(kPop, schedule);
      ExactEngine engine;
      engine.set_threads(lanes);
      if (with_artificial) engine.set_artificial_noise(artificial);
      EXPECT_EQ(steady_state_allocations(protocol, engine, 16, kWarmupRounds),
                0u)
          << "exact, " << lanes << " lanes" << suffix;
    }
    SourceFilter protocol(kPop, schedule);
    SequentialEngine sequential;
    if (with_artificial) sequential.set_artificial_noise(artificial);
    EXPECT_EQ(
        steady_state_allocations(protocol, sequential, 16, kWarmupRounds), 0u)
        << "sequential" << suffix;
    if (with_artificial) {
      SourceFilter aggregated(kPop, schedule);
      AggregateEngine engine;
      engine.set_artificial_noise(artificial);
      EXPECT_EQ(
          steady_state_allocations(aggregated, engine, 16, kWarmupRounds), 0u)
          << "aggregate" << suffix;
    }
  }
}

// The counter works: a round that must allocate is seen.
TEST(RoundAllocations, TheCounterSeesAnAllocation) {
  const std::uint64_t before = g_allocations.load();
  auto p = std::make_unique<std::uint64_t>(7);
  EXPECT_GT(g_allocations.load(), before);
  EXPECT_EQ(*p, 7u);
}

}  // namespace
}  // namespace noisypull
