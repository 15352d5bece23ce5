// Experiment-level scheduler: one global (cell × repetition) work queue.
//
// Every theorem table in bench/ estimates success probabilities over a
// parameter grid from seeded repetitions, and this is the one harness that
// runs them.  A per-cell loop with a barrier between cells would make a
// table's wall-clock the sum of per-cell barriers — and easy cells would
// burn exactly as many repetitions as hard ones.  The scheduler flattens the
// whole table into one queue of (cell, repetition) work items drained by a
// fixed worker pool (common/thread_pool.hpp), and optionally stops issuing
// repetitions for a cell once its success-rate confidence interval is tight
// enough.  A fixed repetition count is StopRule{.max_reps = R} with no cache.
//
// Determinism contract (tests/test_scheduler.cpp, tests/test_chaos.cpp):
//   * Repetition r of a cell builds its protocol from the substream
//     Rng(seed, 2r) and runs on Rng(seed, 2r+1), so each repetition's
//     trajectory is a function of (cell, r) alone, never of which worker
//     ran it or when.
//   * The early-stopping decision is evaluated on completed-repetition
//     *prefixes in repetition-index order*: the rule stops a cell at the
//     smallest prefix length m ∈ [min_reps, max_reps] whose Wilson interval
//     half-width is ≤ the target.  Scheduling order can change which
//     repetitions beyond m happen to be computed (and wasted), but never
//     the stopping point or any reported statistic — cell statistics are
//     bit-identical for every worker count and cache setting.
//   * Crash safety extends the same contract across process boundaries: a
//     sweep killed at an arbitrary point and restarted with the same
//     manifest_path replays completed (cell, repetition) outcomes from the
//     manifest, recomputes only what is missing, and reports statistics
//     bit-identical to an uninterrupted run — because every statistic is a
//     function of outcome prefixes and every outcome is a pure function of
//     (cell, r).
//
// Result cache: with a non-empty cache_dir, each cell's per-repetition
// outcomes are persisted in a file named by an FNV-1a digest of everything
// that determines the trajectories — schema version, protocol-construction
// digest (caller-supplied via CellKey), noise matrix, artificial noise,
// FaultPlan, RunConfig, steady-state spec, engine kind, and seed.  Worker
// count, engine lanes, the compiled-path toggle, and the stopping rule are
// deliberately NOT part of the key: they are trajectory-invariant, so
// cached outcomes remain valid under any of them.  A warm run replays
// outcomes from the file and only computes repetitions the file does not
// cover (e.g. after tightening --ci-halfwidth); statistics are identical
// cold, warm, and with the cache bypassed (tests pin all three).
//
// Cache self-healing: every entry carries a CRC-32 over its record body
// (format v2); corrupt, truncated, or wrong-version entries are quarantined
// to a `.quarantine/` sidecar — preserving the evidence — and recomputed.
// All durable I/O goes through common/atomic_io, where
// tests/test_chaos.cpp injects torn writes, short reads, rename failures,
// and ENOSPC; under any such FsFaultPlan the scheduler must never crash,
// hang, or change statistics.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "noisypull/analysis/stats.hpp"
#include "noisypull/common/atomic_io.hpp"
#include "noisypull/common/fnv.hpp"
#include "noisypull/fault/fault_plan.hpp"
#include "noisypull/sim/churn.hpp"
#include "noisypull/sim/lumped_engine.hpp"
#include "noisypull/sim/runner.hpp"

namespace noisypull {

// Bumped whenever engine or runner semantics change in a way that alters
// trajectories for identical inputs (it is folded into every cache key, so
// a bump invalidates all previously cached cells at once).
inline constexpr std::uint64_t kCellCacheSchemaVersion = 4;

// Version of the on-disk cache *record layout*, independent of the key
// schema above: v2 added the entry CRC and the steady-state outcome fields.
// Not folded into the cache key: a file in any other layout is quarantined
// as wrong-format-version and recomputed.  (v1 files were written only
// under key schema 1, so no current key names one.)
inline constexpr std::uint64_t kCacheRecordFormatVersion = 2;

// Incremental FNV-1a digest builder for cache keys.  The scheduler folds
// every input it can see (noise, config, seed, ...); the caller folds the
// parts hidden inside the ProtocolFactory closure — the protocol type name
// and every construction parameter — via this builder and passes the result
// as ExperimentCell::protocol_digest.
class CellKey {
 public:
  CellKey& u64(std::uint64_t v) noexcept {
    digest_ = fnv::hash_u64(digest_, v);
    return *this;
  }
  // Doubles are folded by bit pattern: the key must distinguish exactly the
  // inputs the simulation distinguishes, no epsilon semantics.
  CellKey& f64(double v) noexcept;
  CellKey& str(std::string_view s) noexcept;
  CellKey& matrix(const Matrix& m) noexcept;

  std::uint64_t digest() const noexcept { return digest_; }

 private:
  std::uint64_t digest_ = fnv::kOffsetBasis;
};

// Adaptive early-stopping rule, evaluated on prefixes in repetition-index
// order (header comment).  ci_halfwidth <= 0 disables early stopping: every
// cell runs exactly max_reps repetitions.
struct StopRule {
  std::uint64_t max_reps = 32;
  std::uint64_t min_reps = 8;    // clamped into [1, max_reps]
  double ci_halfwidth = 0.0;     // Wilson 95% half-width target; <= 0 = off
  bool require_stability = false;  // success = correct AND stable
};

// Steady-state repetition mode: instead of a convergence run (sim/runner
// run()), the repetition measures the equilibrium correct fraction over
// `measure` rounds after `warmup` rounds, optionally under continuous churn
// (sim/churn.hpp).  This is how tab_fault_matrix and tab_churn express
// their cells on the scheduler.
struct SteadyStateSpec {
  std::uint64_t warmup = 0;
  std::uint64_t measure = 1;
  std::optional<ChurnConfig> churn{};  // requires an SSF protocol
};

// Builds a fresh protocol for one repetition.  `init_rng` (the substream
// Rng(seed, 2r)) must be used for all randomness of construction and
// corruption.
using ProtocolFactory =
    std::function<std::unique_ptr<PullProtocol>(Rng& init_rng)>;

// One grid cell: everything needed to run (and cache) its repetitions.
// Field order tracks how often benches set each field (designated
// initializers must follow declaration order, and skipping a *middle*
// field trips -Wmissing-field-initializers under the -Werror build).
struct ExperimentCell {
  std::string label{};  // for logs/errors only; not part of the cache key
  ProtocolFactory make_protocol{};
  NoiseMatrix noise = NoiseMatrix::noiseless(2);
  Opinion correct = 1;
  RunConfig cfg{};  // record_trajectory is not supported by the scheduler
  std::uint64_t seed = 1;
  // CellKey digest over the protocol type and construction parameters
  // captured inside make_protocol.  Required when caching is enabled.
  std::uint64_t protocol_digest = 0;
  bool use_aggregate_engine = true;
  std::optional<Matrix> artificial_noise{};
  // Wraps the engine in a FaultyEngine realizing this plan (a fresh
  // decorator per repetition, so stall state never leaks across runs).
  std::optional<FaultPlan> fault_plan{};
  // When set, repetitions are steady-state measurements instead of
  // convergence runs (cfg.h is the sample size; cfg.max_rounds is unused).
  std::optional<SteadyStateSpec> steady_state{};
  // Population-dynamics cell: when set, each repetition constructs a fresh
  // LumpedSetup from this factory and runs run_lumped() on the run substream
  // Rng(seed, 2r+1) — the init substream Rng(seed, 2r) is unused because
  // lumped initialization is deterministic.  make_protocol is ignored (pass
  // an empty factory), and fault_plan / steady_state must be unset: the
  // lumped engine supports neither decorators nor churn.  The factory bakes
  // its own NoiseMatrix; keep `noise` equal to the baked matrix (it is part
  // of the cache key) and fold every factory parameter into protocol_digest.
  // Lumped cells fold a distinct engine kind into the cache key, so their
  // entries never alias agent-engine entries for the same parameters.
  std::function<LumpedSetup()> make_lumped{};
};

// Compact per-repetition outcome — the unit the cache stores.  Everything
// the table benches derive from a RunResult, minus trajectories; the three
// trailing fields carry steady-state/churn measurements and are zero for
// convergence cells.
struct RepOutcome {
  bool all_correct_at_end = false;
  bool stable = false;
  std::uint64_t rounds_run = 0;
  std::uint64_t first_all_correct = kNever;
  std::uint64_t correct_at_end = 0;
  double mean_correct_fraction = 0.0;
  double min_correct_fraction = 0.0;
  std::uint64_t resets = 0;
};

RepOutcome to_outcome(const RunResult& r) noexcept;
// Steady-state repetitions count as "successful" when the correct fraction
// never dipped below 1 inside the measure window (full consensus held
// throughout); the interesting metrics are the fraction fields themselves.
RepOutcome to_outcome(const SteadyStateResult& r) noexcept;
RepOutcome to_outcome(const ChurnResult& r) noexcept;

// Statistics of one cell over the prefix [0, reps) selected by the stop
// rule.  All fields are deterministic functions of the outcomes in index
// order (never of scheduling or cache state) — except the bookkeeping tail
// (reps_computed, reps_cached, transient_retries, cache_quarantined), which
// describes this invocation and is excluded from the sweep report.
struct CellStats {
  std::uint64_t reps = 0;       // prefix length the statistics cover
  std::uint64_t successes = 0;  // all_correct_at_end within the prefix
  std::uint64_t stable_successes = 0;  // ... AND stable
  double success_rate = 0.0;
  double stable_success_rate = 0.0;
  Interval wilson;              // 95% Wilson interval of the stop metric
  double ci_halfwidth = 0.0;    // (wilson.upper - wilson.lower) / 2
  // Welford accumulation over first_all_correct of converged repetitions,
  // in index order; nullopt when none converged (Table::cell prints
  // "never", never a numeric sentinel).
  std::optional<double> mean_convergence_round;
  double convergence_stddev = 0.0;
  double mean_rounds_run = 0.0;
  // Steady-state aggregates over the prefix (meaningful for cells with a
  // SteadyStateSpec; identically 0 / 1 / 0 for convergence cells).
  double mean_steady_fraction = 0.0;  // mean of mean_correct_fraction
  double min_steady_fraction = 1.0;   // min of min_correct_fraction
  std::uint64_t total_resets = 0;     // churn resets summed over the prefix
  bool early_stopped = false;   // reps < max_reps due to the CI rule
  // Graceful degradation: repetitions whose retry budget was exhausted.
  // A failure at index f pins the usable prefix to [0, f); the cell then
  // reports the statistics of that shorter prefix with degraded = true
  // instead of hanging or aborting the sweep.
  std::uint64_t failed_reps = 0;
  bool degraded = false;
  std::uint64_t reps_computed = 0;  // fresh simulations this invocation
  std::uint64_t reps_cached = 0;    // reps replayed from cache or manifest
  std::uint64_t transient_retries = 0;  // requeues after transient failures
  std::uint64_t cache_quarantined = 0;  // corrupt cache entries quarantined
  std::uint64_t cache_key = 0;      // full content digest of the cell
};

// Thrown by a repetition (or injected via SchedulerOptions::rep_hook in
// tests) to signal a transient, retryable failure.  OperationCancelled —
// the watchdog's signal — is classified the same way; any other exception
// is fatal and aborts the sweep as before.
struct TransientRepFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct SchedulerOptions {
  // Worker lanes draining the global queue; 0 = hardware_concurrency.
  unsigned threads = 0;
  StopRule stop{};
  // Directory of the content-addressed result cache; empty disables it.
  std::string cache_dir{};
  // Engine lanes inside each repetition (Engine::set_threads).  Default 1:
  // repetition-level parallelism is preferred when there are many
  // repetitions.  0 = auto: hardware_concurrency / workers (at least 1), so
  // workers × lanes never oversubscribe the machine — the setting for few
  // huge repetitions.  Statistics are bit-identical for every value.
  unsigned engine_threads = 1;
  // Checkpoint/resume manifest file; empty disables.  A sweep restarted
  // with the same path replays completed (cell × repetition) outcomes and
  // recomputes only what is missing.
  std::string manifest_path{};
  // Watchdog deadline per repetition, in seconds; <= 0 disables.  An
  // overdue repetition is cooperatively cancelled (CancelToken) and
  // requeued like any transient failure.
  double rep_timeout = 0.0;
  // Requeue budget per repetition after transient failures; attempt
  // count = 1 + max_retries, then the repetition fails permanently and the
  // cell degrades.
  std::uint64_t max_retries = 2;
  // Path of the deterministic sweep-report JSON; empty disables.  Contains
  // only run-invariant statistics plus the degraded/failure accounting, so
  // interrupted+resumed and uninterrupted sweeps emit byte-identical files.
  std::string report_path{};
  // Filesystem fault injection for the cache/manifest/report I/O (chaos
  // tests); a zero plan is bit-identical passthrough.
  io::FsFaultPlan fs_faults{};
  // Test seam: invoked before each *computed* repetition (cell index, rep
  // index).  A throw from the hook is classified like a throw from the
  // repetition itself — TransientRepFailure/OperationCancelled requeue,
  // anything else aborts (how the chaos tests emulate a mid-sweep crash).
  std::function<void(std::size_t, std::uint64_t)> rep_hook{};
};

// Outcome of parsing one cache entry; exposed (with the parser itself) so
// the regression tests can pin the diagnosis of each corruption class.
enum class CacheEntryStatus {
  kHit,                 // current format, checksum and key verified
  kMissing,             // no file
  kTruncatedHeader,     // header line incomplete (torn write at the start)
  kWrongFormatVersion,  // parsed header, unknown record format version
  kKeyMismatch,         // parsed header, entry belongs to a different cell
  kChecksumMismatch,    // v2 body does not match its CRC (torn/corrupt)
  kMalformedRecord,     // header ok, body does not parse
};

std::string_view to_string(CacheEntryStatus status) noexcept;

struct CacheEntry {
  CacheEntryStatus status = CacheEntryStatus::kMissing;
  std::vector<RepOutcome> outcomes;
};

// Parses a cache file payload for the cell identified by `key`.  Outcomes
// are returned only for kHit.
CacheEntry parse_cache_entry(std::string_view payload, std::uint64_t key);

// Serializes the prefix [0, reps) of `outcomes` in the current (v2)
// record format, with the entry CRC in the header.
std::string serialize_cache_entry(std::uint64_t key,
                                  const std::vector<RepOutcome>& outcomes,
                                  std::uint64_t reps);

// The deterministic stopping point: smallest m in [min_reps, max_reps] whose
// Wilson half-width over outcomes[0, m) meets rule.ci_halfwidth, else
// max_reps (also when early stopping is disabled).  outcomes.size() must be
// >= the returned value; exposed for tests.
std::uint64_t stop_point(const std::vector<RepOutcome>& outcomes,
                         const StopRule& rule);

// Statistics over the prefix [0, reps) of outcomes; exposed for tests.
// reps == 0 (a cell whose very first repetition failed permanently) yields
// the all-default stats — the caller flags it degraded.
CellStats finalize_prefix(const std::vector<RepOutcome>& outcomes,
                          std::uint64_t reps, const StopRule& rule);

// Full content digest of one cell (schema version + protocol_digest + every
// scheduler-visible input).  This is the cache file's identity.
std::uint64_t cell_cache_key(const ExperimentCell& cell);

// Deterministic JSON report of a finished sweep: one object per cell with
// the run-invariant statistics and the degradation accounting.  Identical
// byte-for-byte for interrupted+resumed and uninterrupted sweeps.
std::string sweep_report_json(const std::vector<ExperimentCell>& cells,
                              const std::vector<CellStats>& stats);

// Runs every cell's repetitions through one global work queue and returns
// one CellStats per cell, in input order.  Transient repetition failures
// (watchdog cancellation, TransientRepFailure) are retried up to the budget
// and then degrade the cell; any other repetition error is rethrown
// (remaining work is abandoned, completed work is already in the manifest).
std::vector<CellStats> run_experiment(const std::vector<ExperimentCell>& cells,
                                      const SchedulerOptions& opts);

}  // namespace noisypull
