// Shared conventions of the experiment binaries.
//
// Every tab_* binary regenerates one experiment from DESIGN.md's
// per-experiment index: it prints a header naming the paper artifact, runs
// the sweep, prints an aligned table, and honors `--csv <path>` via
// BenchArgs.  Experiment sizes are chosen so the full suite runs in minutes
// on one core; the scaling *shapes* — not absolute constants — carry the
// paper's claims.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "noisypull/noisypull.hpp"

namespace noisypull::bench {

inline void header(const std::string& id, const std::string& claim) {
  std::printf("=== %s ===\n%s\n\n", id.c_str(), claim.c_str());
}

// Default calibrated schedule constant (see DESIGN.md, substitutions).
inline constexpr C1 kC1 = kDefaultC1;

// SF as its compiled population: every scheduler cell runs on
// AggregateEngine, where the closed-form rules realize SourceFilter's
// trajectory in less time and memory (DESIGN.md §13).
inline ProtocolFactory sf_factory(const PopulationConfig& pop, Holdings h,
                                  Delta delta, C1 c1 = kC1) {
  return [pop, h, delta, c1](Rng&) -> std::unique_ptr<PullProtocol> {
    return make_compiled_sf(pop, make_sf_schedule(pop, h, delta, c1));
  };
}

inline ProtocolFactory ssf_factory(const PopulationConfig& pop,
                                   Holdings h, Delta delta,
                                   CorruptionPolicy policy, C1 c1 = kC1) {
  return [pop, h, delta, policy,
      c1](Rng& init) -> std::unique_ptr<PullProtocol> {
    auto ssf =
        std::make_unique<SelfStabilizingSourceFilter>(pop, h, delta, c1);
    corrupt_population(*ssf, policy, pop.correct_opinion(), init);
    return ssf;
  };
}

// Cache-key digests over everything the factories above capture (protocol
// type + every construction parameter) — the caller-supplied half of the
// content-addressed result cache (ExperimentCell::protocol_digest).
inline std::uint64_t sf_digest(const PopulationConfig& pop, Holdings h,
                               Delta delta, C1 c1 = kC1) {
  // The key names SF's law, not the class that runs it: SourceFilter and
  // the compiled population are bit-identical, so one key serves both.
  return CellKey()
      .str("SourceFilter")
      .u64(pop.n)
      .u64(pop.s1)
      .u64(pop.s0)
      .u64(h.get())
      .f64(delta.get())
      .f64(c1.get())
      .digest();
}

inline std::uint64_t ssf_digest(const PopulationConfig& pop, Holdings h,
                                Delta delta, CorruptionPolicy policy,
                                C1 c1 = kC1) {
  return CellKey()
      .str("SelfStabilizingSourceFilter")
      .u64(pop.n)
      .u64(pop.s1)
      .u64(pop.s0)
      .u64(h.get())
      .f64(delta.get())
      .str(to_string(policy))
      .f64(c1.get())
      .digest();
}

// Folds the shared scheduler flags (BenchArgs) into SchedulerOptions.
// `default_reps` is the bench's built-in per-cell repetition count; the
// default StopRule reproduces the pre-scheduler behavior exactly (fixed
// repetitions, no early stopping) until the user opts in via
// --ci-halfwidth / --max-reps.
inline SchedulerOptions scheduler_options(const BenchArgs& args,
                                          std::uint64_t default_reps,
                                          bool require_stability = false) {
  SchedulerOptions opts;
  opts.threads = args.threads;
  opts.stop.max_reps = args.max_reps > 0 ? args.max_reps : default_reps;
  if (opts.stop.min_reps > opts.stop.max_reps) {
    opts.stop.min_reps = opts.stop.max_reps;
  }
  opts.stop.ci_halfwidth = args.ci_halfwidth;
  opts.stop.require_stability = require_stability;
  if (!args.no_cache) opts.cache_dir = args.cache_dir;
  opts.manifest_path = args.manifest_path;
  opts.rep_timeout = args.rep_timeout;
  opts.max_retries = args.max_retries;
  opts.report_path = args.report_path;
  return opts;
}

// Prints a warning when any cell finished degraded (retry budget exhausted
// under --rep-timeout); the table still prints — the statistics cover the
// shortened prefixes — but the run must not masquerade as clean.
inline void warn_if_degraded(const std::vector<CellStats>& stats) {
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;
  for (const CellStats& s : stats) {
    if (s.degraded) {
      ++cells;
      failed += s.failed_reps;
    }
  }
  if (cells != 0) {
    std::fprintf(stderr,
                 "warning: %llu cell(s) degraded (%llu repetition(s) failed "
                 "permanently); statistics cover the shortened prefixes\n",
                 static_cast<unsigned long long>(cells),
                 static_cast<unsigned long long>(failed));
  }
}

}  // namespace noisypull::bench
