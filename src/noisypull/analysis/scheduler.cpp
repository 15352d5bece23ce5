#include "noisypull/analysis/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iterator>
#include <limits>
#include <list>
#include <memory>
#include <map>
#include <sstream>

// The scheduler's shared queue state is guarded by one mutex and a condition
// variable (workers park when every remaining repetition is already in
// flight).  Allowlisted by tools/noisypull_lint.cpp's threading-header rule:
// this file *drives* the shared ThreadPool rather than opening a new
// parallelism seam.  The additional thread is the watchdog,
// which only reads steady_clock and flips CancelTokens — it never touches
// outcomes, so it cannot influence statistics.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "noisypull/analysis/manifest.hpp"
#include "noisypull/common/cancel.hpp"
#include "noisypull/common/check.hpp"
#include "noisypull/common/thread_pool.hpp"
#include "noisypull/core/ssf.hpp"
#include "noisypull/fault/faulty_engine.hpp"

namespace noisypull {

namespace {

namespace fs = std::filesystem;

// Cache files are named by the cell's content digest; the format is a small
// line-oriented text record (see serialize_cache_entry).  A file that fails
// to parse is quarantined and recomputed — the cache is an accelerator, not
// a store of record, but corruption is preserved as evidence, never
// silently swallowed.
constexpr const char* kCacheMagic = "noisypull-cell-cache";

std::string cache_file_name(std::uint64_t key) {
  std::ostringstream os;
  os << "cell-" << std::hex << std::setfill('0') << std::setw(16) << key
     << ".npsum";
  return os.str();
}

std::string hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << v;
  return os.str();
}

bool parse_v2_body(std::istream& in, std::uint64_t reps,
                   std::vector<RepOutcome>& outcomes) {
  outcomes.reserve(reps);
  for (std::uint64_t r = 0; r < reps; ++r) {
    std::uint64_t index = 0;
    int correct = 0;
    int stable = 0;
    std::uint64_t mean_bits = 0;
    std::uint64_t min_bits = 0;
    RepOutcome o;
    in >> index >> correct >> stable >> o.rounds_run >> o.first_all_correct >>
        o.correct_at_end >> std::hex >> mean_bits >> min_bits >> std::dec >>
        o.resets;
    if (!in || index != r || (correct != 0 && correct != 1) ||
        (stable != 0 && stable != 1)) {
      return false;
    }
    o.all_correct_at_end = correct == 1;
    o.stable = stable == 1;
    o.mean_correct_fraction = std::bit_cast<double>(mean_bits);
    o.min_correct_fraction = std::bit_cast<double>(min_bits);
    outcomes.push_back(o);
  }
  return true;
}

StopRule normalized(StopRule rule) {
  NOISYPULL_CHECK(rule.max_reps >= 1, "stop rule needs at least one rep");
  rule.min_reps = std::clamp<std::uint64_t>(rule.min_reps, 1, rule.max_reps);
  return rule;
}

bool outcome_success(const RepOutcome& o, bool require_stability) noexcept {
  // Stability on the wrong opinion is failure, not success: a RepOutcome
  // can be built by hand (tests, cache records), so both bits are read.
  return require_stability ? (o.stable && o.all_correct_at_end)
                           : o.all_correct_at_end;
}

// Sentinel for "no repetition has permanently failed".
constexpr std::uint64_t kNoFailure = std::numeric_limits<std::uint64_t>::max();

// Mutable scheduling state of one cell.  `outcomes[r]` is valid iff
// `have[r]`; `frontier` is the length of the contiguous completed prefix,
// which is the only thing stopping decisions and statistics ever read.
struct CellState {
  std::vector<RepOutcome> outcomes;
  std::vector<char> have;
  std::uint64_t frontier = 0;
  std::uint64_t next_issue = 0;   // next repetition index to hand out
  std::uint64_t issue_cap = 0;    // reps allowed to issue right now
  std::uint64_t eval_cursor = 0;  // successes folded into eval_successes
  std::uint64_t eval_successes = 0;
  std::uint64_t stop_at = 0;      // decided prefix length (valid iff decided)
  bool decided = false;
  bool degraded = false;          // decided because of a permanent failure
  std::uint64_t computed = 0;     // fresh simulations
  std::uint64_t cached = 0;       // outcomes replayed from cache or manifest
  std::uint64_t cached_file_reps = 0;  // reps the loaded file already held
  // Fault-tolerance bookkeeping.
  std::vector<std::uint64_t> attempts;  // per-rep claim count
  std::vector<std::uint64_t> retry;     // requeued transient failures
  std::uint64_t first_failed = kNoFailure;  // smallest permanently failed rep
  std::uint64_t failed_reps = 0;
  std::uint64_t transient_retries = 0;
  std::uint64_t quarantined = 0;
};

// In-flight repetition registry entry the watchdog scans.
struct InFlightRep {
  std::chrono::steady_clock::time_point start;
  CancelToken token;
};

// Reads and parses the cache entry for `key`, retrying statuses a short
// read can produce and quarantining anything that stays corrupt.
CacheEntry load_cache_entry(const fs::path& path, std::uint64_t key,
                            const io::IoOptions& io,
                            std::uint64_t& quarantined) {
  CacheEntry entry;
  for (std::uint64_t attempt = 0; attempt <= io.max_retries; ++attempt) {
    const auto payload = io::read_file(path, io);
    if (!payload) {
      entry = CacheEntry{};  // kMissing
      return entry;
    }
    entry = parse_cache_entry(*payload, key);
    switch (entry.status) {
      case CacheEntryStatus::kHit:
        return entry;
      case CacheEntryStatus::kTruncatedHeader:
      case CacheEntryStatus::kChecksumMismatch:
      case CacheEntryStatus::kMalformedRecord:
        // Could be an injected/real short read: re-read before concluding
        // the file itself is damaged.
        continue;
      case CacheEntryStatus::kWrongFormatVersion:
      case CacheEntryStatus::kKeyMismatch:
      case CacheEntryStatus::kMissing:
        // Definitive: the content is wrong, not the read.
        attempt = io.max_retries;  // fall through to quarantine
        continue;
    }
  }
  // Still corrupt after the read retries: preserve the evidence and treat
  // the entry as a miss.
  io::quarantine_file(path, to_string(entry.status));
  ++quarantined;
  entry.outcomes.clear();
  return entry;
}

}  // namespace

CellKey& CellKey::f64(double v) noexcept {
  return u64(std::bit_cast<std::uint64_t>(v));
}

CellKey& CellKey::str(std::string_view s) noexcept {
  for (const char c : s) {
    digest_ = fnv::hash_byte(digest_, static_cast<std::uint8_t>(c));
  }
  // Length terminator: distinguishes str("ab").str("c") from str("a").str("bc").
  return u64(s.size());
}

CellKey& CellKey::matrix(const Matrix& m) noexcept {
  u64(m.rows());
  u64(m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) f64(m(i, j));
  }
  return *this;
}

RepOutcome to_outcome(const RunResult& r) noexcept {
  return RepOutcome{.all_correct_at_end = r.all_correct_at_end,
                    .stable = r.stable,
                    .rounds_run = r.rounds_run,
                    .first_all_correct = r.first_all_correct,
                    .correct_at_end = r.correct_at_end};
}

RepOutcome to_outcome(const SteadyStateResult& r) noexcept {
  const bool held = r.min_correct_fraction >= 1.0;
  return RepOutcome{.all_correct_at_end = held,
                    .stable = held,
                    .rounds_run = r.rounds_run,
                    .first_all_correct = kNever,
                    .correct_at_end = 0,
                    .mean_correct_fraction = r.mean_correct_fraction,
                    .min_correct_fraction = r.min_correct_fraction,
                    .resets = 0};
}

RepOutcome to_outcome(const ChurnResult& r) noexcept {
  const bool held = r.min_correct_fraction >= 1.0;
  return RepOutcome{.all_correct_at_end = held,
                    .stable = held,
                    .rounds_run = r.rounds_run,
                    .first_all_correct = kNever,
                    .correct_at_end = 0,
                    .mean_correct_fraction = r.mean_correct_fraction,
                    .min_correct_fraction = r.min_correct_fraction,
                    .resets = r.resets};
}

std::string_view to_string(CacheEntryStatus status) noexcept {
  switch (status) {
    case CacheEntryStatus::kHit: return "hit";
    case CacheEntryStatus::kMissing: return "missing";
    case CacheEntryStatus::kTruncatedHeader: return "truncated-header";
    case CacheEntryStatus::kWrongFormatVersion: return "wrong-format-version";
    case CacheEntryStatus::kKeyMismatch: return "key-mismatch";
    case CacheEntryStatus::kChecksumMismatch: return "checksum-mismatch";
    case CacheEntryStatus::kMalformedRecord: return "malformed-record";
  }
  return "?";
}

CacheEntry parse_cache_entry(std::string_view payload, std::uint64_t key) {
  CacheEntry entry;
  const std::string text(payload);
  std::istringstream in(text);

  std::string header;
  if (!std::getline(in, header)) {
    entry.status = CacheEntryStatus::kTruncatedHeader;
    return entry;
  }
  std::istringstream head(header);
  std::string magic;
  std::uint64_t version = 0;
  if (!(head >> magic >> version)) {
    entry.status = CacheEntryStatus::kTruncatedHeader;
    return entry;
  }
  if (magic != kCacheMagic) {
    entry.status = CacheEntryStatus::kMalformedRecord;
    return entry;
  }

  if (version != kCacheRecordFormatVersion) {
    entry.status = CacheEntryStatus::kWrongFormatVersion;
    return entry;
  }

  std::uint64_t stored_key = 0;
  std::uint64_t reps = 0;
  std::uint32_t stored_crc = 0;
  if (!(head >> std::hex >> stored_key >> std::dec >> reps >> std::hex >>
        stored_crc)) {
    entry.status = CacheEntryStatus::kTruncatedHeader;
    return entry;
  }
  if (stored_key != key) {
    entry.status = CacheEntryStatus::kKeyMismatch;
    return entry;
  }
  // The CRC covers the raw body bytes (everything after the header line),
  // so any torn write or bit flip below the header is caught here before
  // the parser ever sees it.
  const std::size_t body_start = text.find('\n');
  const std::string_view body =
      body_start == std::string::npos ? std::string_view{}
                                      : payload.substr(body_start + 1);
  if (io::crc32(body) != stored_crc) {
    entry.status = CacheEntryStatus::kChecksumMismatch;
    return entry;
  }
  if (!parse_v2_body(in, reps, entry.outcomes)) {
    entry.outcomes.clear();
    entry.status = CacheEntryStatus::kMalformedRecord;
    return entry;
  }
  entry.status = CacheEntryStatus::kHit;
  return entry;
}

std::string serialize_cache_entry(std::uint64_t key,
                                  const std::vector<RepOutcome>& outcomes,
                                  std::uint64_t reps) {
  NOISYPULL_CHECK(reps <= outcomes.size(),
                  "serialize_cache_entry: reps exceeds outcomes");
  std::ostringstream body;
  for (std::uint64_t r = 0; r < reps; ++r) {
    const RepOutcome& o = outcomes[r];
    body << r << " " << (o.all_correct_at_end ? 1 : 0) << " "
         << (o.stable ? 1 : 0) << " " << o.rounds_run << " "
         << o.first_all_correct << " " << o.correct_at_end << " "
         << hex16(std::bit_cast<std::uint64_t>(o.mean_correct_fraction))
         << " " << hex16(std::bit_cast<std::uint64_t>(o.min_correct_fraction))
         << " " << o.resets << "\n";
  }
  const std::string body_str = body.str();
  std::ostringstream out;
  out << kCacheMagic << " " << kCacheRecordFormatVersion << " " << hex16(key)
      << " " << reps << " " << std::hex << std::setfill('0') << std::setw(8)
      << io::crc32(body_str) << "\n"
      << body_str;
  return out.str();
}

std::uint64_t stop_point(const std::vector<RepOutcome>& outcomes,
                         const StopRule& rule_in) {
  const StopRule rule = normalized(rule_in);
  if (rule.ci_halfwidth <= 0.0) return rule.max_reps;
  NOISYPULL_CHECK(outcomes.size() >= rule.min_reps,
                  "stop_point needs at least min_reps outcomes");
  std::uint64_t successes = 0;
  for (std::uint64_t m = 1; m <= rule.max_reps; ++m) {
    if (outcomes.size() < m) break;
    if (outcome_success(outcomes[m - 1], rule.require_stability)) ++successes;
    if (m >= rule.min_reps &&
        wilson_halfwidth(successes, m) <= rule.ci_halfwidth) {
      return m;
    }
  }
  return rule.max_reps;
}

CellStats finalize_prefix(const std::vector<RepOutcome>& outcomes,
                          std::uint64_t reps, const StopRule& rule_in) {
  const StopRule rule = normalized(rule_in);
  NOISYPULL_CHECK(reps <= outcomes.size(),
                  "finalize_prefix needs a completed prefix");
  CellStats stats;
  stats.reps = reps;
  if (reps == 0) return stats;  // degraded cell with no usable prefix
  Welford convergence;
  double rounds_sum = 0.0;
  double steady_sum = 0.0;
  for (std::uint64_t r = 0; r < reps; ++r) {
    const RepOutcome& o = outcomes[r];
    if (o.all_correct_at_end) {
      ++stats.successes;
      if (o.stable) ++stats.stable_successes;
    }
    if (o.first_all_correct != kNever) {
      convergence.push(static_cast<double>(o.first_all_correct));
    }
    rounds_sum += static_cast<double>(o.rounds_run);
    steady_sum += o.mean_correct_fraction;
    stats.min_steady_fraction =
        std::min(stats.min_steady_fraction, o.min_correct_fraction);
    stats.total_resets += o.resets;
  }
  const double denom = static_cast<double>(reps);
  stats.success_rate = static_cast<double>(stats.successes) / denom;
  stats.stable_success_rate =
      static_cast<double>(stats.stable_successes) / denom;
  const std::uint64_t metric =
      rule.require_stability ? stats.stable_successes : stats.successes;
  stats.wilson = wilson_interval(metric, reps);
  stats.ci_halfwidth = (stats.wilson.upper - stats.wilson.lower) / 2.0;
  if (convergence.count() > 0) {
    stats.mean_convergence_round = convergence.mean();
    stats.convergence_stddev = convergence.sample_stddev();
  }
  stats.mean_rounds_run = rounds_sum / denom;
  stats.mean_steady_fraction = steady_sum / denom;
  stats.early_stopped = reps < rule.max_reps;
  return stats;
}

std::uint64_t cell_cache_key(const ExperimentCell& cell) {
  CellKey key;
  key.u64(kCellCacheSchemaVersion);
  key.u64(cell.protocol_digest);
  key.matrix(cell.noise.matrix());
  if (cell.artificial_noise) {
    key.u64(1).matrix(*cell.artificial_noise);
  } else {
    key.u64(0);
  }
  if (cell.fault_plan) {
    const FaultPlan& p = *cell.fault_plan;
    key.u64(1)
        .u64(p.seed)
        .u64(p.first_eligible)
        .f64(p.byzantine.fraction)
        .u64(static_cast<std::uint64_t>(p.byzantine.strategy))
        .u64(p.byzantine.wrong_symbol)
        .u64(p.byzantine.honest_symbol)
        .u64(p.byzantine.mimic_symbol)
        .f64(p.drop.p)
        .f64(p.stall.crash_rate)
        .u64(p.stall.min_rounds)
        .u64(p.stall.max_rounds)
        .f64(p.stall.blackout_fraction)
        .u64(p.stall.blackout_start)
        .u64(p.stall.blackout_rounds)
        .f64(p.burst.rate)
        .u64(p.burst.rounds)
        .f64(p.burst.delta);
  } else {
    key.u64(0);
  }
  // RunConfig: engine_threads and compiled are trajectory-invariant and
  // deliberately excluded (the header comment's invalidation contract) —
  // a cached interpreted run answers for a compiled one and vice versa.
  // Engine kind: 0 = exact, 1 = aggregate, 2 = lumped.  The lumped engine
  // is distribution-equivalent but not trajectory-identical to the agent
  // engines, so it must never share cache entries with them; the first two
  // values keep every pre-lumped key bit-identical.
  const std::uint64_t engine_kind =
      cell.make_lumped ? 2 : (cell.use_aggregate_engine ? 1 : 0);
  key.u64(cell.cfg.h)
      .u64(cell.cfg.max_rounds)
      .u64(cell.cfg.stability_window)
      .u64(engine_kind)
      .u64(cell.seed);
  // The steady-state block is folded only when present: convergence cells
  // keep the exact keys they had before the mode existed, so no previously
  // cached trajectory is orphaned.
  if (cell.steady_state) {
    const SteadyStateSpec& ss = *cell.steady_state;
    key.u64(0x5354454144595353ULL)  // "STEADYSS" tag
        .u64(ss.warmup)
        .u64(ss.measure);
    if (ss.churn) {
      key.u64(1)
          .f64(ss.churn->rate)
          .u64(static_cast<std::uint64_t>(ss.churn->policy))
          .u64(ss.churn->churn_sources ? 1 : 0);
    } else {
      key.u64(0);
    }
  }
  return key.digest();
}

std::string sweep_report_json(const std::vector<ExperimentCell>& cells,
                              const std::vector<CellStats>& stats) {
  NOISYPULL_CHECK(cells.size() == stats.size(),
                  "sweep_report_json: cells/stats size mismatch");
  // Shortest exact decimal round-trip would suffice; %.17g is exact for
  // every double and trivially reproducible, which is all the byte-identity
  // contract needs.
  const auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const auto escape = [](std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // labels are ASCII
      out.push_back(c);
    }
    return out;
  };

  bool any_degraded = false;
  for (const CellStats& s : stats) any_degraded |= s.degraded;

  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"noisypull-sweep-report/1\",\n"
     << "  \"degraded\": " << (any_degraded ? "true" : "false") << ",\n"
     << "  \"cells\": [\n";
  for (std::size_t c = 0; c < stats.size(); ++c) {
    const CellStats& s = stats[c];
    os << "    {\n"
       << "      \"label\": \"" << escape(cells[c].label) << "\",\n"
       << "      \"cache_key\": \"" << hex16(s.cache_key) << "\",\n"
       << "      \"reps\": " << s.reps << ",\n"
       << "      \"successes\": " << s.successes << ",\n"
       << "      \"stable_successes\": " << s.stable_successes << ",\n"
       << "      \"success_rate\": " << num(s.success_rate) << ",\n"
       << "      \"stable_success_rate\": " << num(s.stable_success_rate)
       << ",\n"
       << "      \"wilson_lower\": " << num(s.wilson.lower) << ",\n"
       << "      \"wilson_upper\": " << num(s.wilson.upper) << ",\n"
       << "      \"mean_convergence_round\": "
       << (s.mean_convergence_round ? num(*s.mean_convergence_round) : "null")
       << ",\n"
       << "      \"mean_rounds_run\": " << num(s.mean_rounds_run) << ",\n"
       << "      \"mean_steady_fraction\": " << num(s.mean_steady_fraction)
       << ",\n"
       << "      \"min_steady_fraction\": " << num(s.min_steady_fraction)
       << ",\n"
       << "      \"total_resets\": " << s.total_resets << ",\n"
       << "      \"early_stopped\": " << (s.early_stopped ? "true" : "false")
       << ",\n"
       << "      \"failed_reps\": " << s.failed_reps << ",\n"
       << "      \"degraded\": " << (s.degraded ? "true" : "false") << "\n"
       << "    }" << (c + 1 < stats.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

std::vector<CellStats> run_experiment(const std::vector<ExperimentCell>& cells,
                                      const SchedulerOptions& opts) {
  NOISYPULL_CHECK(!cells.empty(), "run_experiment needs at least one cell");
  const StopRule rule = normalized(opts.stop);
  for (const ExperimentCell& cell : cells) {
    NOISYPULL_CHECK(!cell.cfg.record_trajectory,
                    "the scheduler does not record trajectories; call "
                    "run() directly for trajectory experiments");
    if (cell.steady_state) {
      NOISYPULL_CHECK(cell.steady_state->measure >= 1,
                      "steady-state cells need at least one measured round");
    }
    if (cell.make_lumped) {
      NOISYPULL_CHECK(!cell.fault_plan,
                      "lumped cells do not support fault plans (the lumped "
                      "engine cannot be wrapped by FaultyEngine)");
      NOISYPULL_CHECK(!cell.steady_state,
                      "lumped cells do not support steady-state/churn "
                      "measurements");
    }
  }
  opts.fs_faults.validate();

  unsigned threads = opts.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t total_reps =
      rule.max_reps * static_cast<std::uint64_t>(cells.size());
  threads = static_cast<unsigned>(
      std::min<std::uint64_t>(threads, std::max<std::uint64_t>(1, total_reps)));
  unsigned engine_threads = opts.engine_threads;
  if (engine_threads == 0) {
    engine_threads =
        std::max(1u, std::thread::hardware_concurrency() / threads);
  }

  // With early stopping on, keep at most `lookahead` repetitions beyond the
  // decided prefix in flight per cell: enough to keep every worker busy,
  // bounded so a cell that is about to stop does not flood the queue with
  // work its statistics will never use.  Wasted overshoot changes wall-clock
  // only — never statistics, which read the prefix [0, stop_at).
  const bool adaptive = rule.ci_halfwidth > 0.0;
  const std::uint64_t lookahead =
      adaptive ? std::max<std::uint64_t>(2 * threads, 4) : rule.max_reps;

  // One FsFaults realization shared by all durable I/O of this sweep; all
  // its call sites are serialized (setup, the manifest mutex, teardown).
  io::FsFaults fs_faults(opts.fs_faults);
  io::IoOptions io;
  io.faults = opts.fs_faults.any() ? &fs_faults : nullptr;

  std::vector<CellState> states(cells.size());
  const bool use_cache = !opts.cache_dir.empty();
  const fs::path cache_dir(opts.cache_dir);
  std::vector<std::uint64_t> keys(cells.size(), 0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    keys[c] = cell_cache_key(cells[c]);
  }

  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellState& st = states[c];
    st.outcomes.resize(rule.max_reps);
    st.have.assign(rule.max_reps, 0);
    st.attempts.assign(rule.max_reps, 0);
    if (use_cache) {
      const CacheEntry entry = load_cache_entry(
          cache_dir / cache_file_name(keys[c]), keys[c], io, st.quarantined);
      const std::uint64_t usable =
          std::min<std::uint64_t>(entry.outcomes.size(), rule.max_reps);
      for (std::uint64_t r = 0; r < usable; ++r) {
        st.outcomes[r] = entry.outcomes[r];
        st.have[r] = 1;
      }
      st.frontier = usable;
      st.next_issue = usable;  // the cached prefix is never recomputed
      st.cached = usable;
      st.cached_file_reps = entry.outcomes.size();
    }
  }

  // Checkpoint/resume: replay the manifest's completed (cell, rep) outcomes
  // into the outcome tables.  Replayed repetitions are bit-equal to what
  // this sweep would compute (each is a pure function of (cell, r)), so
  // every downstream statistic is unchanged — the resume contract.
  SweepManifest manifest;
  std::mutex manifest_mutex;
  if (!opts.manifest_path.empty()) {
    std::map<std::uint64_t, std::size_t> by_key;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      by_key.emplace(keys[c], c);  // duplicate cells share a key; first wins
    }
    manifest.open(opts.manifest_path, sweep_digest(keys), io);
    for (const auto& [key_rep, outcome] : manifest.records()) {
      const auto it = by_key.find(key_rep.first);
      if (it == by_key.end()) continue;
      CellState& st = states[it->second];
      const std::uint64_t r = key_rep.second;
      if (r >= rule.max_reps || st.have[r] != 0) continue;
      st.outcomes[r] = outcome;
      st.have[r] = 1;
      ++st.cached;
    }
    for (CellState& st : states) {
      while (st.frontier < rule.max_reps && st.have[st.frontier] != 0) {
        ++st.frontier;
      }
      if (st.next_issue < st.frontier) st.next_issue = st.frontier;
    }
  }

  std::mutex mutex;
  std::condition_variable work_cv;
  std::size_t incomplete = 0;
  std::exception_ptr first_error;
  bool aborted = false;
  std::uint64_t running_total = 0;  // in-flight reps (watchdog bookkeeping)

  // Prefix-order decision advance for one cell; caller holds the mutex.
  // Folds newly contiguous outcomes into the running success count and
  // decides the stopping point the moment the deciding prefix completes.
  // A cell whose prefix is pinned by a permanently failed repetition
  // decides "degraded" with the statistics of the shorter prefix — the
  // sweep always completes.
  const auto advance_decision = [&](CellState& st) {
    while (!st.decided && st.eval_cursor < st.frontier) {
      const std::uint64_t m = st.eval_cursor + 1;
      if (outcome_success(st.outcomes[st.eval_cursor],
                          rule.require_stability)) {
        ++st.eval_successes;
      }
      st.eval_cursor = m;
      if (adaptive && m >= rule.min_reps && m < rule.max_reps &&
          wilson_halfwidth(st.eval_successes, m) <= rule.ci_halfwidth) {
        st.decided = true;
        st.stop_at = m;
      }
      if (m == rule.max_reps) {
        st.decided = true;
        st.stop_at = rule.max_reps;
      }
    }
    if (!st.decided && st.first_failed != kNoFailure &&
        st.frontier >= st.first_failed) {
      // Every repetition below the first permanent failure has landed; no
      // future completion can extend the usable prefix.
      st.decided = true;
      st.degraded = true;
      st.stop_at = st.frontier;
      st.retry.clear();
    }
    if (st.decided) st.retry.clear();
    st.issue_cap =
        st.decided ? 0
                   : std::min(rule.max_reps,
                              std::max<std::uint64_t>(rule.min_reps,
                                                      st.frontier + lookahead));
  };

  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (CellState& st : states) {
      advance_decision(st);
      if (!st.decided) ++incomplete;
    }
  }

  // Watchdog: in-flight registry plus a poller that cancels overdue
  // repetitions.  Tokens live in a std::list so their addresses are stable
  // while workers hold them.
  const bool watchdog_on = opts.rep_timeout > 0.0;
  std::mutex wd_mutex;
  std::list<InFlightRep> inflight;
  std::atomic<bool> wd_stop{false};

  const auto run_cell_rep = [&](const ExperimentCell& cell, std::uint64_t r,
                                Engine& engine_for_run,
                                const CancelToken* cancel) -> RepOutcome {
    Rng init_rng(cell.seed, 2 * r);
    Rng run_rng(cell.seed, 2 * r + 1);
    auto protocol = cell.make_protocol(init_rng);
    if (!cell.steady_state) {
      RunConfig cfg = cell.cfg;
      cfg.cancel = cancel;
      return to_outcome(run(*protocol, engine_for_run, cell.noise,
                            cell.correct, cfg, run_rng));
    }
    const SteadyStateSpec& ss = *cell.steady_state;
    if (ss.churn) {
      auto* ssf = dynamic_cast<SelfStabilizingSourceFilter*>(protocol.get());
      NOISYPULL_CHECK(ssf != nullptr,
                      "churn cells require a SelfStabilizingSourceFilter");
      return to_outcome(run_with_churn(*ssf, engine_for_run, cell.noise,
                                       cell.correct, Holdings{cell.cfg.h},
                                       ss.warmup, ss.measure, *ss.churn,
                                       run_rng, cancel));
    }
    return to_outcome(measure_steady_state(
        *protocol, engine_for_run, cell.noise, cell.correct,
        Holdings{cell.cfg.h}, ss.warmup, ss.measure, run_rng, {}, cancel));
  };

  // Transient-failure handler: requeue within the retry budget, otherwise
  // mark the repetition permanently failed (which pins the cell's usable
  // prefix and eventually decides it degraded).  A decided cell drops the
  // failure entirely — its statistics are already fixed.
  const auto on_transient = [&](std::size_t cell_index, std::uint64_t rep) {
    const std::lock_guard<std::mutex> lock(mutex);
    CellState& st = states[cell_index];
    --running_total;
    if (!st.decided) {
      if (st.attempts[rep] <= opts.max_retries) {
        st.retry.push_back(rep);
        ++st.transient_retries;
      } else {
        ++st.failed_reps;
        st.first_failed = std::min(st.first_failed, rep);
        const bool was_decided = st.decided;
        advance_decision(st);
        if (!was_decided && st.decided) --incomplete;
      }
    }
    work_cv.notify_all();
  };

  const auto worker = [&](std::uint64_t lane) {
    // One engine per worker, rebuilt only when the worker switches cells:
    // repetitions of one cell reuse the engine's scratch buffers.  Workers
    // start spread across the grid (lane-seeded cursor) and stay on their
    // cell until it has no issuable work — depth-first per worker completes
    // decision prefixes early, and the cursor only moves (work stealing)
    // when the current cell is drained.  None of this affects results: statistics are a function of
    // outcome prefixes, not of who computed them.
    std::unique_ptr<Engine> engine;
    std::size_t engine_cell = std::numeric_limits<std::size_t>::max();
    std::size_t cursor = static_cast<std::size_t>(lane) % states.size();
    for (;;) {
      std::size_t cell_index = 0;
      std::uint64_t rep = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
          if (aborted || incomplete == 0) return;
          bool found = false;
          for (std::size_t i = 0; i < states.size(); ++i) {
            const std::size_t c = (cursor + i) % states.size();
            CellState& st = states[c];
            if (st.decided) continue;
            if (!st.retry.empty()) {
              // Requeued transient failures outrank fresh issuance: they
              // sit on the critical path of this cell's decision prefix.
              cell_index = c;
              rep = st.retry.back();
              st.retry.pop_back();
              cursor = c;
              found = true;
              break;
            }
            // Issuing beyond the first permanent failure is pure waste —
            // the frontier can never cross it.
            const std::uint64_t cap = std::min(st.issue_cap, st.first_failed);
            while (st.next_issue < cap && st.have[st.next_issue] != 0) {
              ++st.next_issue;  // skip outcomes replayed from the manifest
            }
            if (st.next_issue < cap) {
              cell_index = c;
              rep = st.next_issue++;
              cursor = c;  // affinity: keep drawing from this cell
              found = true;
              break;
            }
          }
          if (found) {
            ++states[cell_index].attempts[rep];
            ++running_total;
            break;
          }
          // Every runnable repetition is in flight; completions may raise
          // issue caps (or finish the experiment), so park until one lands.
          work_cv.wait(lock);
        }
      }

      const ExperimentCell& cell = cells[cell_index];

      // Register with the watchdog before the repetition starts so a hung
      // simulation cannot outlive its deadline unobserved.
      std::list<InFlightRep>::iterator wd_entry;
      const CancelToken* cancel = nullptr;
      if (watchdog_on) {
        const std::lock_guard<std::mutex> wd_lock(wd_mutex);
        inflight.emplace_back();
        wd_entry = std::prev(inflight.end());
        wd_entry->start = std::chrono::steady_clock::now();
        cancel = &wd_entry->token;
      }
      const auto deregister = [&] {
        if (watchdog_on) {
          const std::lock_guard<std::mutex> wd_lock(wd_mutex);
          inflight.erase(wd_entry);
        }
      };

      try {
        if (opts.rep_hook) opts.rep_hook(cell_index, rep);
        RepOutcome outcome;
        if (cell.make_lumped) {
          // Lumped cells carry their population state inside the engine, so
          // a fresh setup per repetition is mandatory — there is nothing to
          // reuse across repetitions the way agent engines reuse buffers.
          // Initialization is deterministic; only the run substream
          // Rng(seed, 2r+1) is consumed, matching run_cell_rep's derivation.
          LumpedSetup setup = cell.make_lumped();
          NOISYPULL_CHECK(setup.engine != nullptr,
                          "make_lumped returned a null engine");
          if (cell.artificial_noise) {
            setup.engine->set_artificial_noise(*cell.artificial_noise);
          }
          Rng run_rng(cell.seed, 2 * rep + 1);
          RunConfig cfg = cell.cfg;
          cfg.cancel = cancel;
          outcome =
              to_outcome(run_lumped(*setup.engine, cell.correct, cfg, run_rng));
        } else {
          if (engine_cell != cell_index || !engine) {
            if (cell.use_aggregate_engine) {
              engine = std::make_unique<AggregateEngine>();
            } else {
              engine = std::make_unique<ExactEngine>();
            }
            if (cell.artificial_noise) {
              engine->set_artificial_noise(*cell.artificial_noise);
            }
            engine->set_threads(engine_threads);
            engine_cell = cell_index;
          }
          if (cell.fault_plan) {
            // Fresh decorator per repetition: stall schedules and fault stats
            // must not leak across runs.
            FaultyEngine faulty(*engine, *cell.fault_plan);
            faulty.set_threads(engine_threads);
            outcome = run_cell_rep(cell, rep, faulty, cancel);
          } else {
            outcome = run_cell_rep(cell, rep, *engine, cancel);
          }
        }
        deregister();

        {
          const std::lock_guard<std::mutex> lock(mutex);
          CellState& st = states[cell_index];
          --running_total;
          st.outcomes[rep] = outcome;
          st.have[rep] = 1;
          ++st.computed;
          while (st.frontier < rule.max_reps && st.have[st.frontier] != 0) {
            ++st.frontier;
          }
          const bool was_decided = st.decided;
          advance_decision(st);
          if (!was_decided && st.decided) --incomplete;
          work_cv.notify_all();
        }
        if (manifest.enabled()) {
          const std::lock_guard<std::mutex> m_lock(manifest_mutex);
          manifest.record(keys[cell_index], rep, outcome);
        }
      } catch (const OperationCancelled&) {
        deregister();
        on_transient(cell_index, rep);
      } catch (const TransientRepFailure&) {
        deregister();
        on_transient(cell_index, rep);
      } catch (...) {
        deregister();
        const std::lock_guard<std::mutex> lock(mutex);
        --running_total;
        if (!first_error) first_error = std::current_exception();
        aborted = true;
        work_cv.notify_all();
        return;
      }
    }
  };

  std::thread watchdog;
  if (watchdog_on) {
    const auto timeout = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(opts.rep_timeout));
    auto poll = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::duration<double>(opts.rep_timeout / 4.0));
    poll = std::clamp(poll, std::chrono::milliseconds(1),
                      std::chrono::milliseconds(20));
    watchdog = std::thread([&, timeout, poll] {
      while (!wd_stop.load(std::memory_order_relaxed)) {
        {
          const std::lock_guard<std::mutex> wd_lock(wd_mutex);
          const auto now = std::chrono::steady_clock::now();
          for (InFlightRep& entry : inflight) {
            if (now - entry.start > timeout) entry.token.cancel();
          }
        }
        std::this_thread::sleep_for(poll);
      }
    });
  }

  if (incomplete > 0) {
    if (threads == 1) {
      worker(0);
    } else {
      ThreadPool pool(threads);
      pool.parallel_for(threads, worker);
    }
  }
  if (watchdog_on) {
    wd_stop.store(true, std::memory_order_relaxed);
    watchdog.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  std::vector<CellStats> results;
  results.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellState& st = states[c];
    NOISYPULL_ASSERT(st.decided && (st.stop_at >= 1 || st.degraded));
    CellStats stats = finalize_prefix(st.outcomes, st.stop_at, rule);
    stats.degraded = st.degraded;
    stats.failed_reps = st.failed_reps;
    stats.transient_retries = st.transient_retries;
    stats.cache_quarantined = st.quarantined;
    stats.reps_computed = st.computed;
    stats.reps_cached = std::min(st.cached, stats.reps);
    stats.cache_key = keys[c];
    // Persist the full contiguous prefix — including lookahead overshoot
    // beyond the stopping point: those repetitions are valid under this key
    // and may serve a future run with a tighter CI target.
    if (use_cache && st.frontier > st.cached_file_reps) {
      io::atomic_write_file(
          cache_dir / cache_file_name(keys[c]),
          serialize_cache_entry(keys[c], st.outcomes, st.frontier), io);
    }
    results.push_back(stats);
  }

  if (!opts.report_path.empty()) {
    io::atomic_write_file(opts.report_path, sweep_report_json(cells, results),
                          io);
  }
  return results;
}

}  // namespace noisypull
