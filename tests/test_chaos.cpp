// Crash-safety and fault-tolerance tests for the sweep runtime
// (analysis/scheduler.hpp + analysis/manifest.hpp + common/atomic_io.hpp).
//
// The contract under test, in three layers:
//   * atomic_io: CRC primitive pinned to the published reference vector;
//     atomic publish round-trips; quarantine preserves evidence; a zero
//     FsFaultPlan is bit-identical passthrough.
//   * cache self-healing: every corruption class (torn header, wrong format
//     version, checksum mismatch, key mismatch, malformed body) is diagnosed
//     distinctly, quarantined — never silently swallowed — and recomputed to
//     the same statistics; a v1-layout file is one more wrong format.
//   * checkpoint/resume + degradation: a sweep killed mid-run and restarted
//     with the same manifest reports statistics bit-identical to an
//     uninterrupted run (including under adaptive early stopping and across
//     worker counts); transient failures retry within budget; an exhausted
//     budget or a watchdog-cancelled hang degrades the cell instead of
//     hanging or aborting the sweep; the sweep-report JSON is byte-identical
//     across resume.
//
// Crashes are emulated with SchedulerOptions::rep_hook (a fatal throw at a
// chosen repetition aborts the sweep exactly like SIGKILL would, except
// testable in-process); infrastructure faults with io::FsFaultPlan, whose
// injected torn writes / short reads / rename failures / ENOSPC must never
// change statistics — only which cache entries survive.
#include "noisypull/analysis/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "noisypull/analysis/manifest.hpp"
#include "noisypull/common/atomic_io.hpp"
#include "noisypull/core/source_filter.hpp"

namespace noisypull {
namespace {

namespace fs = std::filesystem;

PopulationConfig pop(std::uint64_t n, std::uint64_t s1, std::uint64_t s0) {
  return PopulationConfig{.n = n, .s1 = s1, .s0 = s0};
}

ProtocolFactory sf_factory(const PopulationConfig& p, double delta) {
  return [p, delta](Rng&) -> std::unique_ptr<PullProtocol> {
    return std::make_unique<SourceFilter>(p, Holdings{p.n}, Delta{delta},
                                          C1{2.0});
  };
}

std::uint64_t sf_digest(const PopulationConfig& p, double delta) {
  return CellKey()
      .str("SourceFilter")
      .u64(p.n)
      .u64(p.s1)
      .u64(p.s0)
      .u64(p.n)
      .f64(delta)
      .f64(2.0)
      .digest();
}

// Same genuinely-random-success construction as test_scheduler.cpp: the run
// stops right after weak opinions form, so early stopping and resume have
// nontrivial decisions to reproduce.
ExperimentCell truncated_cell(const PopulationConfig& p, double delta,
                              std::uint64_t seed) {
  const SourceFilter ref(p, Holdings{p.n}, Delta{delta}, C1{2.0});
  return ExperimentCell{
      .label = "sf n=" + std::to_string(p.n),
      .make_protocol = sf_factory(p, delta),
      .noise = NoiseMatrix::uniform(2, delta),
      .correct = p.correct_opinion(),
      .cfg = RunConfig{.h = p.n,
                       .max_rounds = ref.schedule().boosting_start()},
      .seed = seed,
      .protocol_digest = sf_digest(p, delta)};
}

void expect_same(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.reps, b.reps);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.stable_successes, b.stable_successes);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.stable_success_rate, b.stable_success_rate);
  EXPECT_EQ(a.wilson.lower, b.wilson.lower);
  EXPECT_EQ(a.wilson.upper, b.wilson.upper);
  EXPECT_EQ(a.mean_convergence_round, b.mean_convergence_round);
  EXPECT_EQ(a.mean_rounds_run, b.mean_rounds_run);
  EXPECT_EQ(a.mean_steady_fraction, b.mean_steady_fraction);
  EXPECT_EQ(a.min_steady_fraction, b.min_steady_fraction);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.cache_key, b.cache_key);
}

// Fresh scratch directory per test.
fs::path scratch(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The single cache file a one-cell cached run produced.
fs::path only_cache_file(const fs::path& dir) {
  fs::path found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) found = entry.path();
  }
  return found;
}

// The emulated crash: thrown from rep_hook, it is a fatal error (neither
// TransientRepFailure nor OperationCancelled), so the sweep aborts with
// completed work already checkpointed — the in-process analogue of SIGKILL.
struct CrashNow {};

// ---------------------------------------------------------------------------
// atomic_io

TEST(AtomicIo, Crc32MatchesReferenceVector) {
  // The CRC-32/IEEE check value (reflected, poly 0xEDB88320).
  EXPECT_EQ(io::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::crc32(""), 0u);
  EXPECT_NE(io::crc32("a"), io::crc32("b"));
}

TEST(AtomicIo, WriteReadRoundTrip) {
  const fs::path dir = scratch("np_chaos_roundtrip");
  const fs::path file = dir / "payload.txt";
  const std::string payload = "line one\nline two\n\x01 binary-ish \xff";
  ASSERT_TRUE(io::atomic_write_file(file, payload));
  const auto back = io::read_file(file);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  // Overwrite publishes atomically: the new content fully replaces the old.
  ASSERT_TRUE(io::atomic_write_file(file, "v2"));
  EXPECT_EQ(io::read_file(file).value_or(""), "v2");
  EXPECT_FALSE(io::read_file(dir / "absent").has_value());
}

TEST(AtomicIo, AppendLineBuildsAJournal) {
  const fs::path dir = scratch("np_chaos_append");
  const fs::path file = dir / "journal";
  ASSERT_TRUE(io::append_line(file, "first"));
  ASSERT_TRUE(io::append_line(file, "second"));
  EXPECT_EQ(io::read_file(file).value_or(""), "first\nsecond\n");
}

TEST(AtomicIo, QuarantinePreservesEvidence) {
  const fs::path dir = scratch("np_chaos_quarantine");
  const fs::path file = dir / "cell-0123.npsum";
  ASSERT_TRUE(io::atomic_write_file(file, "corrupt bytes"));
  io::quarantine_file(file, "checksum-mismatch");
  EXPECT_FALSE(fs::exists(file));
  const fs::path moved =
      dir / ".quarantine" / "cell-0123.npsum.checksum-mismatch";
  ASSERT_TRUE(fs::exists(moved));
  EXPECT_EQ(slurp(moved), "corrupt bytes");
}

TEST(AtomicIo, TearKeepsTheFirstHalf) {
  EXPECT_EQ(io::FsFaults::tear("abcdef"), "abc");
  EXPECT_EQ(io::FsFaults::tear("abcde"), "ab");
  EXPECT_EQ(io::FsFaults::tear("a"), "");
}

TEST(AtomicIo, FaultPlanValidatesRates) {
  io::FsFaultPlan plan;
  plan.torn_write = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.torn_write = 0.0;
  plan.short_read = -0.1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.short_read = 0.0;
  EXPECT_NO_THROW(plan.validate());
  EXPECT_FALSE(plan.any());
  plan.enospc = 0.5;
  EXPECT_TRUE(plan.any());
}

TEST(AtomicIo, ZeroPlanIsBitIdenticalPassthrough) {
  const fs::path dir = scratch("np_chaos_zero_plan");
  io::FsFaults faults{io::FsFaultPlan{.seed = 42}};
  io::IoOptions with_faults;
  with_faults.faults = &faults;
  ASSERT_TRUE(io::atomic_write_file(dir / "a", "payload", with_faults));
  ASSERT_TRUE(io::atomic_write_file(dir / "b", "payload"));
  EXPECT_EQ(slurp(dir / "a"), slurp(dir / "b"));
  EXPECT_EQ(io::read_file(dir / "a", with_faults).value_or(""), "payload");
}

// ---------------------------------------------------------------------------
// Cache entry diagnostics (the self-healing layer's parser)

TEST(CacheEntry, SerializeParseRoundTrip) {
  std::vector<RepOutcome> outcomes(3);
  outcomes[0] = RepOutcome{.all_correct_at_end = true,
                           .stable = true,
                           .rounds_run = 17,
                           .first_all_correct = 9,
                           .correct_at_end = 100,
                           .mean_correct_fraction = 0.9375,
                           .min_correct_fraction = 0.5,
                           .resets = 4};
  outcomes[1].rounds_run = 21;
  outcomes[1].first_all_correct = kNever;
  outcomes[2].rounds_run = 23;
  const std::uint64_t key = 0xDEADBEEFCAFEF00DULL;
  const std::string payload = serialize_cache_entry(key, outcomes, 3);
  const CacheEntry entry = parse_cache_entry(payload, key);
  ASSERT_EQ(entry.status, CacheEntryStatus::kHit);
  ASSERT_EQ(entry.outcomes.size(), 3u);
  EXPECT_EQ(entry.outcomes[0].mean_correct_fraction, 0.9375);
  EXPECT_EQ(entry.outcomes[0].min_correct_fraction, 0.5);
  EXPECT_EQ(entry.outcomes[0].resets, 4u);
  EXPECT_EQ(entry.outcomes[1].first_all_correct, kNever);
  EXPECT_EQ(entry.outcomes[2].rounds_run, 23u);
}

TEST(CacheEntry, DistinguishesTruncatedHeaderFromWrongFormatVersion) {
  // Regression pin: a header cut off mid-line (torn write at the start of
  // the file) and a complete header carrying an unknown future format
  // version are different failures — the first is worth a re-read (it may
  // be a short read), the second is definitive.
  const std::uint64_t key = 7;
  EXPECT_EQ(parse_cache_entry("", key).status,
            CacheEntryStatus::kTruncatedHeader);
  EXPECT_EQ(parse_cache_entry("noisypull-cell-cache", key).status,
            CacheEntryStatus::kTruncatedHeader);
  EXPECT_EQ(parse_cache_entry("noisypull-cell-cache 2 000000000000",
                              key).status,

            CacheEntryStatus::kTruncatedHeader);
  EXPECT_EQ(
      parse_cache_entry("noisypull-cell-cache 9 0000000000000007 1 00000000\n",
                        key)
          .status,
      CacheEntryStatus::kWrongFormatVersion);
}

TEST(CacheEntry, DiagnosesEveryCorruptionClassDistinctly) {
  std::vector<RepOutcome> outcomes(2);
  outcomes[0].rounds_run = 5;
  outcomes[1].rounds_run = 6;
  const std::uint64_t key = 11;
  const std::string good = serialize_cache_entry(key, outcomes, 2);

  EXPECT_EQ(parse_cache_entry("some-other-magic 2 x\n", key).status,
            CacheEntryStatus::kMalformedRecord);
  EXPECT_EQ(parse_cache_entry(good, key + 1).status,
            CacheEntryStatus::kKeyMismatch);
  // Flip one body byte: the CRC catches it before the parser runs.
  std::string flipped = good;
  flipped[flipped.size() - 2] ^= 1;
  EXPECT_EQ(parse_cache_entry(flipped, key).status,
            CacheEntryStatus::kChecksumMismatch);
  // A torn write that kept the header but lost body bytes is also a
  // checksum mismatch (the header's CRC no longer matches the half body).
  const std::string torn = std::string(io::FsFaults::tear(good));
  if (torn.find('\n') != std::string::npos) {
    EXPECT_EQ(parse_cache_entry(torn, key).status,
              CacheEntryStatus::kChecksumMismatch);
  }
  // Every status has a distinct quarantine tag.
  EXPECT_NE(to_string(CacheEntryStatus::kTruncatedHeader),
            to_string(CacheEntryStatus::kWrongFormatVersion));
  EXPECT_NE(to_string(CacheEntryStatus::kChecksumMismatch),
            to_string(CacheEntryStatus::kMalformedRecord));
}

TEST(CacheEntry, LegacyV1EntryParsesAsWrongFormatVersion) {
  // v1 records (no CRC, no steady fields) were written only under cache
  // key schema 1; this build reads none of them, even under a matching key.
  const std::uint64_t key = 0x00000000000000FFULL;
  std::ostringstream v1;
  v1 << "noisypull-cell-cache 1 00000000000000ff 2\n"
     << "0 1 1 10 4 100\n"
     << "1 0 0 12 " << kNever << " 93\n";
  const CacheEntry entry = parse_cache_entry(v1.str(), key);
  EXPECT_EQ(entry.status, CacheEntryStatus::kWrongFormatVersion);
  EXPECT_TRUE(entry.outcomes.empty());
}

// ---------------------------------------------------------------------------
// Scheduler-level cache self-healing

TEST(Chaos, CorruptV2EntryIsQuarantinedAndRecomputed) {
  const fs::path dir = scratch("np_chaos_heal");
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 301)};
  SchedulerOptions opts{.threads = 1,
                        .stop = StopRule{.max_reps = 3},
                        .cache_dir = dir.string()};
  const auto cold = run_experiment(cells, opts);
  const fs::path file = only_cache_file(dir);
  ASSERT_FALSE(file.empty());

  // Corrupt one body byte of the freshly written v2 entry.
  std::string bytes = slurp(file);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() - 2] ^= 1;
  {
    std::ofstream out(file, std::ios::trunc | std::ios::binary);
    out << bytes;
  }

  const auto healed = run_experiment(cells, opts);
  expect_same(cold[0], healed[0]);
  EXPECT_EQ(healed[0].reps_computed, 3u);
  EXPECT_EQ(healed[0].cache_quarantined, 1u);
  // The corrupt entry was preserved as evidence, tagged with its diagnosis.
  const fs::path moved = dir / ".quarantine" /
                         (file.filename().string() + ".checksum-mismatch");
  EXPECT_TRUE(fs::exists(moved));
  // And the cache was rewritten clean: a third run replays it fully.
  const auto warm = run_experiment(cells, opts);
  expect_same(cold[0], warm[0]);
  EXPECT_EQ(warm[0].reps_computed, 0u);
  EXPECT_EQ(warm[0].cache_quarantined, 0u);
}

TEST(Chaos, FutureFormatVersionIsQuarantinedNotParsed) {
  const fs::path dir = scratch("np_chaos_future_version");
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 302)};
  SchedulerOptions opts{.threads = 1,
                        .stop = StopRule{.max_reps = 2},
                        .cache_dir = dir.string()};
  const auto cold = run_experiment(cells, opts);
  const fs::path file = only_cache_file(dir);
  std::string bytes = slurp(file);
  // "noisypull-cell-cache 2 ..." -> version 9: a future layout this build
  // cannot interpret; trusting any of it would be guessing.
  const std::size_t version_at = std::string("noisypull-cell-cache ").size();
  ASSERT_EQ(bytes[version_at], '2');
  bytes[version_at] = '9';
  {
    std::ofstream out(file, std::ios::trunc | std::ios::binary);
    out << bytes;
  }
  const auto healed = run_experiment(cells, opts);
  expect_same(cold[0], healed[0]);
  EXPECT_EQ(healed[0].cache_quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir / ".quarantine" /
                         (file.filename().string() + ".wrong-format-version")));
}

TEST(Chaos, V1EntryIsQuarantinedAndRecomputed) {
  const fs::path dir = scratch("np_chaos_v1");
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 303)};
  SchedulerOptions opts{.threads = 1,
                        .stop = StopRule{.max_reps = 3},
                        .cache_dir = dir.string()};
  const auto cold = run_experiment(cells, opts);
  const fs::path file = only_cache_file(dir);

  // Rewrite the entry in the v1 layout (no CRC, no steady fields) under
  // the current key: this build reads only the current layout.
  const CacheEntry parsed =
      parse_cache_entry(slurp(file), cold[0].cache_key);
  ASSERT_EQ(parsed.status, CacheEntryStatus::kHit);
  std::ostringstream v1;
  v1 << "noisypull-cell-cache 1 " << std::hex << std::setfill('0')
     << std::setw(16) << cold[0].cache_key << std::dec << " "
     << parsed.outcomes.size() << "\n";
  for (std::size_t r = 0; r < parsed.outcomes.size(); ++r) {
    const RepOutcome& o = parsed.outcomes[r];
    v1 << r << " " << (o.all_correct_at_end ? 1 : 0) << " "
       << (o.stable ? 1 : 0) << " " << o.rounds_run << " "
       << o.first_all_correct << " " << o.correct_at_end << "\n";
  }
  {
    std::ofstream out(file, std::ios::trunc | std::ios::binary);
    out << v1.str();
  }
  EXPECT_EQ(parse_cache_entry(v1.str(), cold[0].cache_key).status,
            CacheEntryStatus::kWrongFormatVersion);

  const auto healed = run_experiment(cells, opts);
  expect_same(cold[0], healed[0]);
  EXPECT_EQ(healed[0].reps_computed, 3u);
  EXPECT_EQ(healed[0].cache_quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir / ".quarantine" /
                         (file.filename().string() + ".wrong-format-version")));
  // The recomputed entry is stored in the current format.
  EXPECT_EQ(parse_cache_entry(slurp(file), cold[0].cache_key).status,
            CacheEntryStatus::kHit);
}

TEST(Chaos, SeededFaultStormsNeverChangeStatistics) {
  // Torn writes, short reads, rename failures, and ENOSPC at high rates:
  // the cache may lose entries (and recompute more), the manifest may drop
  // records, but every reported statistic must equal the clean run's.
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 304),
      truncated_cell(pop(130, 1, 0), 0.25, 305)};
  const StopRule rule{.max_reps = 4};
  const auto clean =
      run_experiment(cells, SchedulerOptions{.threads = 2, .stop = rule});

  for (const std::uint64_t storm_seed : {1u, 2u, 3u}) {
    const fs::path dir =
        scratch(("np_chaos_storm_" + std::to_string(storm_seed)).c_str());
    SchedulerOptions opts{.threads = 2, .stop = rule,
                          .cache_dir = dir.string()};
    opts.manifest_path = (dir / "manifest").string();
    opts.report_path = (dir / "report.json").string();
    opts.fs_faults = io::FsFaultPlan{.seed = storm_seed,
                                     .torn_write = 0.5,
                                     .short_read = 0.5,
                                     .rename_failure = 0.5,
                                     .enospc = 0.5};
    const auto stormy = run_experiment(cells, opts);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      expect_same(clean[c], stormy[c]);
    }
    // A second pass over whatever survived on disk still agrees.
    const auto again = run_experiment(cells, opts);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      expect_same(clean[c], again[c]);
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume

TEST(Chaos, ResumeAfterCrashIsBitIdentical) {
  // Crash the sweep after a handful of repetitions (fatal throw from
  // rep_hook == the process dying), then restart with the same manifest:
  // the resumed run must replay the checkpointed work and report statistics
  // bit-identical to an uninterrupted sweep — with adaptive early stopping
  // on and across worker counts.
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 310),
      truncated_cell(pop(130, 1, 0), 0.25, 311),
      truncated_cell(pop(160, 1, 0), 0.3, 312)};
  const StopRule rule{.max_reps = 10, .min_reps = 3, .ci_halfwidth = 0.24};
  const auto reference =
      run_experiment(cells, SchedulerOptions{.threads = 1, .stop = rule});

  for (const unsigned threads : {1u, 2u, 8u}) {
    const fs::path dir =
        scratch(("np_chaos_resume_" + std::to_string(threads)).c_str());
    SchedulerOptions crashing{.threads = threads, .stop = rule};
    crashing.manifest_path = (dir / "manifest").string();
    std::atomic<std::uint64_t> computed{0};
    crashing.rep_hook = [&](std::size_t, std::uint64_t) {
      if (computed.fetch_add(1) >= 5) throw CrashNow{};
    };
    EXPECT_THROW(run_experiment(cells, crashing), CrashNow);

    SchedulerOptions resumed = crashing;
    resumed.rep_hook = nullptr;
    const auto stats = run_experiment(cells, resumed);
    std::uint64_t replayed = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      expect_same(reference[c], stats[c]);
      replayed += stats[c].reps_cached;
    }
    // The crashed run's completed repetitions were actually reused (the
    // crash fires after 5 hook calls, so at least some work landed).
    EXPECT_GT(replayed, 0u) << "threads=" << threads;
  }
}

TEST(Chaos, ReportIsByteIdenticalAcrossResume) {
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 320),
      truncated_cell(pop(130, 1, 0), 0.25, 321)};
  const StopRule rule{.max_reps = 6, .min_reps = 2, .ci_halfwidth = 0.3};

  const fs::path dir = scratch("np_chaos_report");
  SchedulerOptions uninterrupted{.threads = 2, .stop = rule};
  uninterrupted.report_path = (dir / "report_clean.json").string();
  run_experiment(cells, uninterrupted);

  SchedulerOptions crashing{.threads = 2, .stop = rule};
  crashing.manifest_path = (dir / "manifest").string();
  crashing.report_path = (dir / "report_resumed.json").string();
  std::atomic<std::uint64_t> computed{0};
  crashing.rep_hook = [&](std::size_t, std::uint64_t) {
    if (computed.fetch_add(1) >= 3) throw CrashNow{};
  };
  EXPECT_THROW(run_experiment(cells, crashing), CrashNow);
  SchedulerOptions resumed = crashing;
  resumed.rep_hook = nullptr;
  run_experiment(cells, resumed);

  const std::string clean = slurp(dir / "report_clean.json");
  const std::string after_resume = slurp(dir / "report_resumed.json");
  ASSERT_FALSE(clean.empty());
  EXPECT_EQ(clean, after_resume);
  EXPECT_NE(clean.find("\"schema\": \"noisypull-sweep-report/1\""),
            std::string::npos);
  EXPECT_NE(clean.find("\"degraded\": false"), std::string::npos);
}

TEST(Chaos, TornManifestTailIsIgnored) {
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 330)};
  const StopRule rule{.max_reps = 4};
  const fs::path dir = scratch("np_chaos_torn_tail");
  SchedulerOptions opts{.threads = 1, .stop = rule};
  opts.manifest_path = (dir / "manifest").string();
  const auto first = run_experiment(cells, opts);

  // A crash mid-append leaves a partial record with a failing (or missing)
  // line CRC; the resume must drop it and recompute that repetition.
  {
    std::ofstream out(opts.manifest_path, std::ios::app | std::ios::binary);
    out << "00000000000000aa 3 1 1";  // torn: no CRC, no newline
  }
  const auto second = run_experiment(cells, opts);
  expect_same(first[0], second[0]);
}

TEST(Chaos, StaleManifestIsQuarantinedNotTrusted) {
  // A manifest written for a different sweep (different cells => different
  // sweep digest) must not leak outcomes into this one.
  const fs::path dir = scratch("np_chaos_stale");
  const std::string manifest = (dir / "manifest").string();
  const StopRule rule{.max_reps = 3};

  const std::vector<ExperimentCell> sweep_a = {
      truncated_cell(pop(100, 1, 0), 0.3, 340)};
  SchedulerOptions opts{.threads = 1, .stop = rule};
  opts.manifest_path = manifest;
  run_experiment(sweep_a, opts);

  const std::vector<ExperimentCell> sweep_b = {
      truncated_cell(pop(130, 1, 0), 0.25, 341)};
  const auto fresh = run_experiment(
      sweep_b, SchedulerOptions{.threads = 1, .stop = rule});
  const auto with_stale = run_experiment(sweep_b, opts);
  expect_same(fresh[0], with_stale[0]);
  EXPECT_EQ(with_stale[0].reps_cached, 0u);
  EXPECT_EQ(with_stale[0].reps_computed, 3u);
  // The old manifest survives in quarantine.
  bool quarantined = false;
  const fs::path qdir = dir / ".quarantine";
  if (fs::exists(qdir)) {
    for (const auto& entry : fs::directory_iterator(qdir)) {
      quarantined |= entry.path().filename().string().find("stale-manifest") !=
                     std::string::npos;
    }
  }
  EXPECT_TRUE(quarantined);
}

// ---------------------------------------------------------------------------
// Transient retries, degradation, watchdog

TEST(Chaos, TransientFailureRetriesToSuccess) {
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 350)};
  const StopRule rule{.max_reps = 4};
  const auto reference =
      run_experiment(cells, SchedulerOptions{.threads = 1, .stop = rule});

  SchedulerOptions flaky{.threads = 1, .stop = rule};
  flaky.max_retries = 2;
  std::atomic<bool> failed_once{false};
  flaky.rep_hook = [&](std::size_t, std::uint64_t rep) {
    if (rep == 1 && !failed_once.exchange(true)) {
      throw TransientRepFailure("injected transient failure");
    }
  };
  const auto stats = run_experiment(cells, flaky);
  expect_same(reference[0], stats[0]);
  EXPECT_FALSE(stats[0].degraded);
  EXPECT_EQ(stats[0].failed_reps, 0u);
  EXPECT_EQ(stats[0].transient_retries, 1u);
  EXPECT_EQ(stats[0].reps, 4u);
}

TEST(Chaos, ExhaustedRetryBudgetDegradesTheCell) {
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 360),
      truncated_cell(pop(130, 1, 0), 0.25, 361)};
  const StopRule rule{.max_reps = 5};
  const fs::path dir = scratch("np_chaos_degrade");

  SchedulerOptions opts{.threads = 1, .stop = rule};
  opts.max_retries = 1;
  opts.report_path = (dir / "report.json").string();
  // Repetition 2 of cell 0 fails on every attempt; everything else is fine.
  opts.rep_hook = [](std::size_t cell, std::uint64_t rep) {
    if (cell == 0 && rep == 2) {
      throw TransientRepFailure("permanently broken repetition");
    }
  };
  const auto stats = run_experiment(cells, opts);

  // Cell 0: prefix pinned at the failure — statistics over reps [0, 2).
  EXPECT_TRUE(stats[0].degraded);
  EXPECT_EQ(stats[0].failed_reps, 1u);
  EXPECT_EQ(stats[0].transient_retries, 1u);  // one requeue, then permanent
  EXPECT_EQ(stats[0].reps, 2u);
  // Its surviving prefix matches the clean run's first two repetitions.
  const auto reference = run_experiment(
      {cells[0]}, SchedulerOptions{.threads = 1,
                                   .stop = StopRule{.max_reps = 2}});
  EXPECT_EQ(stats[0].successes, reference[0].successes);
  EXPECT_EQ(stats[0].mean_rounds_run, reference[0].mean_rounds_run);
  // Cell 1 is untouched and not degraded.
  EXPECT_FALSE(stats[1].degraded);
  EXPECT_EQ(stats[1].reps, 5u);
  // The report carries the degradation flag for downstream tooling.
  const std::string report = slurp(dir / "report.json");
  EXPECT_NE(report.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(report.find("\"failed_reps\": 1"), std::string::npos);
}

TEST(Chaos, FirstRepetitionFailingPermanentlyYieldsEmptyPrefix) {
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 370)};
  SchedulerOptions opts{.threads = 1, .stop = StopRule{.max_reps = 3}};
  opts.max_retries = 0;
  opts.rep_hook = [](std::size_t, std::uint64_t rep) {
    if (rep == 0) throw TransientRepFailure("rep 0 always fails");
  };
  const auto stats = run_experiment(cells, opts);
  EXPECT_TRUE(stats[0].degraded);
  EXPECT_EQ(stats[0].reps, 0u);
  EXPECT_EQ(stats[0].success_rate, 0.0);
  EXPECT_EQ(stats[0].failed_reps, 1u);
}

TEST(Chaos, WatchdogCancelsHungRepetitionAndDegrades) {
  // A repetition that would run ~forever (max_rounds effectively unbounded,
  // and a truncated SF never reaches stability) is cooperatively cancelled
  // by the watchdog, retried, and finally fails permanently — the sweep
  // completes degraded instead of hanging.
  const PopulationConfig p = pop(200, 1, 0);
  ExperimentCell hung = truncated_cell(p, 0.3, 380);
  hung.cfg.max_rounds = 1000000000000ULL;
  SchedulerOptions opts{.threads = 2, .stop = StopRule{.max_reps = 2}};
  opts.rep_timeout = 0.05;
  opts.max_retries = 1;
  const auto stats = run_experiment({hung}, opts);
  EXPECT_TRUE(stats[0].degraded);
  EXPECT_EQ(stats[0].reps, 0u);
  EXPECT_GE(stats[0].failed_reps, 1u);
  EXPECT_GE(stats[0].transient_retries, 1u);
}

TEST(Chaos, WatchdogLeavesFastRepetitionsAlone) {
  // A generous timeout must not perturb a healthy sweep: same statistics,
  // no retries, no degradation.
  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 390)};
  const StopRule rule{.max_reps = 3};
  const auto reference =
      run_experiment(cells, SchedulerOptions{.threads = 1, .stop = rule});
  SchedulerOptions opts{.threads = 1, .stop = rule};
  opts.rep_timeout = 60.0;
  const auto stats = run_experiment(cells, opts);
  expect_same(reference[0], stats[0]);
  EXPECT_EQ(stats[0].transient_retries, 0u);
  EXPECT_FALSE(stats[0].degraded);
}

// ---------------------------------------------------------------------------
// Manifest internals

TEST(Manifest, RecordsRoundTripThroughAppendOnlyJournal) {
  const fs::path dir = scratch("np_chaos_manifest_unit");
  const std::string path = (dir / "m").string();
  const std::vector<std::uint64_t> keys = {3, 5, 8};
  const std::uint64_t digest = sweep_digest(keys);

  RepOutcome o;
  o.all_correct_at_end = true;
  o.rounds_run = 12;
  o.first_all_correct = 7;
  o.mean_correct_fraction = 0.75;
  o.resets = 2;
  {
    SweepManifest m;
    m.open(path, digest, io::IoOptions{});
    EXPECT_TRUE(m.enabled());
    EXPECT_TRUE(m.records().empty());
    m.record(5, 0, o);
    m.record(5, 1, RepOutcome{});
    RepOutcome third;
    third.rounds_run = 9;
    m.record(3, 0, third);
  }
  SweepManifest reopened;
  reopened.open(path, digest, io::IoOptions{});
  const auto& records = reopened.records();
  ASSERT_EQ(records.size(), 3u);
  const auto it = records.find({5, 0});
  ASSERT_NE(it, records.end());
  EXPECT_TRUE(it->second.all_correct_at_end);
  EXPECT_EQ(it->second.rounds_run, 12u);
  EXPECT_EQ(it->second.first_all_correct, 7u);
  EXPECT_EQ(it->second.mean_correct_fraction, 0.75);
  EXPECT_EQ(it->second.resets, 2u);
}

TEST(Manifest, SweepDigestDependsOnKeysAndOrder) {
  EXPECT_NE(sweep_digest({1, 2}), sweep_digest({2, 1}));
  EXPECT_NE(sweep_digest({1, 2}), sweep_digest({1, 2, 3}));
  EXPECT_EQ(sweep_digest({1, 2}), sweep_digest({1, 2}));
}

}  // namespace
}  // namespace noisypull
