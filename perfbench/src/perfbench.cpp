// perfbench — the repository benchmark (perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out-dir <dir>]
//
// Runs one workload in this process, gates it for correctness, then prints
// '#'-prefixed diagnostic lines and, last, one JSON result line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// replica of the round loop and reports the per-layer metrics.  Everything
// is measured from outside the library, through its public calls.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "noisypull/noisypull.hpp"
#include "observed_protocol.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using namespace noisypull;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Repetition r of a run draws its construction and run randomness from the
// substreams Rng(seed, 2r) / Rng(seed, 2r+1), like the CLI's --reps.  The
// correctness gate uses a repetition index no timed repetition reaches.
constexpr std::uint64_t kGateRep = 1'000'000;

// Engine lanes of the timed and traced repetitions, and scheduler workers
// of the sweep.  One: on a shared host a round that waits at a barrier for
// all of its lanes runs at the pace of the slowest vCPU, and run-to-run
// times at nproc lanes spread by a fifth and more; nproc independent jobs
// side by side fared no better once the whole VM was kept busy for
// minutes.  The gate still checks every agent workload at nproc lanes, and
// the traced run reports the lane speed-up.
constexpr unsigned kTimedLanes = 1;

// ---------------------------------------------------------------- output

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Metrics, the attempted/failed tally, and the failure log of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void count(const std::string& name, std::uint64_t value) {
    metric(name, static_cast<double>(value), "count");
  }

  // One gated item: a run, a sweep cell, or a digest comparison.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("# FAIL %s\n", what.c_str());
      std::fflush(stdout);
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  std::string metrics_json() const {
    std::string out = "{";
    for (const auto& [name, m] : metrics_) {
      if (out.size() > 1) out += ", ";
      out += quoted(name) + ": {\"value\": " + fmt(m.first) +
             ", \"unit\": " + quoted(m.second) + "}";
    }
    return out + "}";
  }

  std::string json() const {
    return "{\"correct\": " + std::string(failed_ == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) +
           ", \"metrics\": " + metrics_json() + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

// Pins the calling thread to each allowed CPU in turn, one timed sample or
// job per CPU.  The vCPUs of a shared host can differ in speed (on a
// 4-vCPU shared Xeon one ran a micro-loop 1.7× slower than the others for
// a while), and a single thread stays on the CPU it started on, so timings
// taken on one CPU carry that CPU's bias from process to process.
// Rotating spreads the samples evenly.  Threads started while pinned inherit the
// one-CPU mask, so only work that starts no computing threads is rotated.
// The destructor restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  CpuRotation(CpuRotation&&) = delete;
  CpuRotation& operator=(CpuRotation&&) = delete;

  // Moves the calling thread to the next CPU of the rotation.
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double load_1min() {
  double load[3] = {0.0, 0.0, 0.0};
  return getloadavg(load, 3) > 0 ? load[0] : -1.0;
}

// Peak resident memory, in MB, since the last reset_peak_rss(): the
// kernel's high-water mark VmHWM, or the process peak (ru_maxrss) where
// /proc/self/status cannot be read.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Returns freed heap pages to the kernel, then resets VmHWM to the
// current resident size, so peak_rss_mb() gives the peak of the job that
// follows over the memory still live before it (without the trim, what
// earlier work left in the allocator's free lists moved a job's peak by
// 8 %).  Where the kernel refuses the reset, the peak stays the process's.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ------------------------------------------------------------- workloads

struct AgentWorkload {
  std::string name;
  bool ssf = false;
  PopulationConfig pop{};
  std::uint64_t h = 0;  // 0: h = n
  double delta = 0.2;
  bool compiled = false;
  // Population of the gate instance: several engine blocks, so the pool
  // really runs them in parallel, yet small enough to run its full horizon
  // three times (four on the compiled workload) in a few seconds.
  std::uint64_t gate_n = 8192;
  // Rounds of the 1-lane vs N-lane comparison (0: the full horizon).
  std::uint64_t lane_rounds = 0;

  std::uint64_t holdings() const { return h == 0 ? pop.n : h; }
  std::size_t alphabet() const { return ssf ? 4 : 2; }
};

// The workload at population n (gate and smoke instances).  Smaller
// populations get at least 16 sources: with one source, SSF at n ~ 3·10⁴
// misses consensus at its deadline in about one run of four.
AgentWorkload scaled(AgentWorkload w, std::uint64_t n) {
  if (n >= w.pop.n) return w;
  w.pop.s1 = std::max<std::uint64_t>(16, w.pop.s1 * n / w.pop.n);
  w.pop.n = n;
  w.gate_n = std::min(w.gate_n, n);
  return w;
}

// The agent workloads (README.md gives the reasons for each).  Each is sized
// so that one single-lane run takes one to two seconds, and a run of the
// benchmark times dozens of them.
std::vector<AgentWorkload> agent_workloads() {
  return {
      {.name = "sf_hn_5e4",
       .pop = {.n = 50'000, .s1 = 1, .s0 = 0},
       .h = 0,
       .delta = 0.2,
       .lane_rounds = 24},
      {.name = "sf_h64_compiled",
       .pop = {.n = 10'000, .s1 = 100, .s0 = 0},
       .h = 64,
       .delta = 0.2,
       .compiled = true,
       .gate_n = 4096,
       .lane_rounds = 0},
      // 16 sources, not 1: with one source SSF at n = 10⁵ ended a few dozen
      // agents short of consensus at its deadline for about one seed in 25;
      // the per-round work is the same.
      {.name = "ssf_recover",
       .ssf = true,
       .pop = {.n = 20'000, .s1 = 16, .s0 = 0},
       .h = 1000,
       .delta = 0.05,
       .lane_rounds = 200},
  };
}

constexpr std::uint64_t kSmokeN = 8192;

struct Instance {
  std::unique_ptr<PullProtocol> protocol{};
  NoiseMatrix noise;
  std::unique_ptr<Engine> engine{};
  std::uint64_t rounds = 0;
  double factory_s = 0.0;  // protocol construction, corruption included
};

// Everything a run needs: the protocol (SSF corrupted to wrong consensus),
// the noise matrix, and an AggregateEngine with `lanes` lanes.
Instance make_instance(const AgentWorkload& w, bool compiled, Rng& init,
                       unsigned lanes) {
  Instance inst{.noise = NoiseMatrix::uniform(w.alphabet(), w.delta)};
  const Holdings h{w.holdings()};
  const auto t0 = Clock::now();
  if (w.ssf) {
    auto ssf =
        std::make_unique<SelfStabilizingSourceFilter>(w.pop, h, Delta{w.delta});
    corrupt_population(*ssf, CorruptionPolicy::WrongConsensus,
                       w.pop.correct_opinion(), init);
    inst.rounds = ssf->convergence_deadline();
    inst.protocol = std::move(ssf);
  } else if (compiled) {
    inst.protocol =
        make_compiled_sf(w.pop, make_sf_schedule(w.pop, h, Delta{w.delta}));
    inst.rounds = inst.protocol->planned_rounds();
  } else {
    inst.protocol = std::make_unique<SourceFilter>(w.pop, h, Delta{w.delta});
    inst.rounds = inst.protocol->planned_rounds();
  }
  inst.factory_s = since(t0);
  inst.engine = std::make_unique<AggregateEngine>();
  inst.engine->set_threads(lanes);
  return inst;
}

RunConfig run_config(const AgentWorkload& w, std::uint64_t rounds,
                     unsigned lanes, bool compiled) {
  return RunConfig{.h = w.holdings(),
                   .max_rounds = rounds,
                   .engine_threads = lanes,
                   .compiled = compiled};
}

struct Outcome {
  RunResult result;
  std::uint64_t digest = 0;
};

bool same(const Outcome& a, const Outcome& b) {
  return a.digest == b.digest &&
         a.result.all_correct_at_end == b.result.all_correct_at_end &&
         a.result.rounds_run == b.result.rounds_run &&
         a.result.first_all_correct == b.result.first_all_correct &&
         a.result.correct_at_end == b.result.correct_at_end;
}

// ------------------------------------------------------ traced round loop

// The traced replica of run()'s round loop (sim/runner.cpp): the same
// step / count_correct sequence, with a span around each call and the
// engine driving an ObservedProtocol so virtual-path updates are counted.
struct TracedRun {
  Outcome outcome;
  int root = -1;
  std::vector<double> step_s;  // per round
  double step_total = 0.0;
  double count_total = 0.0;
  std::uint64_t virtual_updates = 0;
  std::uint64_t declined_rounds = 0;   // compiled toggle on, round virtual
  std::uint64_t compiled_rounds = 0;   // round ran with no virtual update
};

TracedRun traced_run(Instance& inst, const AgentWorkload& w,
                     std::uint64_t rounds, unsigned lanes, bool compiled,
                     Rng& rng, Trace& trace, const std::string& label) {
  ObservedProtocol observed(std::move(inst.protocol));
  Engine& engine = *inst.engine;
  engine.set_threads(lanes);
  if (compiled) engine.set_compiled(true);
  const Opinion correct = w.pop.correct_opinion();
  const std::uint64_t n = observed.num_agents();
  const Holdings h{w.holdings()};

  TracedRun out;
  out.step_s.reserve(rounds);
  out.root = trace.open(label, -1);
  std::uint64_t streak_start = kNever;
  std::uint64_t seen = 0;
  for (std::uint64_t t = 0; t < rounds; ++t) {
    const double a = trace.now();
    engine.step(observed, inst.noise, h, t, rng);
    const double b = trace.now();
    const std::uint64_t good = count_correct(observed.inner(), correct);
    const double c = trace.now();
    trace.add("step", a, b, out.root);
    trace.add("count_correct", b, c, out.root);
    out.step_s.push_back(b - a);
    out.step_total += b - a;
    out.count_total += c - b;
    if (good == n) {
      if (streak_start == kNever) streak_start = t;
    } else {
      streak_start = kNever;
    }
    const std::uint64_t now_seen = observed.virtual_updates();
    if (now_seen == seen) {
      ++out.compiled_rounds;
    } else if (compiled) {
      ++out.declined_rounds;
    }
    seen = now_seen;
  }
  RunResult& r = out.outcome.result;
  r.rounds_run = rounds;
  r.correct_at_end = count_correct(observed.inner(), correct);
  r.all_correct_at_end = r.correct_at_end == n;
  r.first_all_correct = streak_start;
  trace.close(out.root);
  out.virtual_updates = seen;
  out.outcome.digest = engine.replay_digest();
  return out;
}

Outcome untraced_run(const AgentWorkload& w, std::uint64_t seed,
                     std::uint64_t rep, unsigned lanes, bool compiled,
                     double* run_s = nullptr) {
  Rng init(seed, 2 * rep);
  Rng rng(seed, 2 * rep + 1);
  Instance inst = make_instance(w, compiled, init, lanes);
  const auto t0 = Clock::now();
  Outcome out;
  out.result = run(*inst.protocol, *inst.engine, inst.noise,
                   w.pop.correct_opinion(),
                   run_config(w, inst.rounds, lanes, compiled), rng);
  if (run_s != nullptr) *run_s = since(t0);
  out.digest = inst.engine->replay_digest();
  return out;
}

TracedRun traced_rep(const AgentWorkload& w, std::uint64_t seed,
                     std::uint64_t rep, unsigned lanes, bool compiled,
                     Trace& trace, const std::string& label,
                     std::uint64_t rounds = 0) {
  Rng init(seed, 2 * rep);
  Rng rng(seed, 2 * rep + 1);
  Instance inst = make_instance(w, compiled, init, lanes);
  if (rounds == 0) rounds = inst.rounds;
  return traced_run(inst, w, rounds, lanes, compiled, rng, trace, label);
}

// ---------------------------------------------------------- agent gate

// Identity checks on a gate-sized instance over its full horizon: replay
// digest and RunResult equal at 1 lane and at N lanes, between run() and
// the traced loop, and (compiled workloads) between the interpreted and
// compiled representations.  Consensus is gated on every timed run.
void agent_gate(const AgentWorkload& full, std::uint64_t seed, unsigned lanes,
                Report& report) {
  const AgentWorkload g = scaled(full, full.gate_n);
  const std::string at = " (gate n=" + std::to_string(g.pop.n) + ")";
  const Outcome base = untraced_run(g, seed, kGateRep, lanes, g.compiled);
  report.check(same(base, untraced_run(g, seed, kGateRep, 1, g.compiled)),
               "replay digest at 1 lane != at " + std::to_string(lanes) +
                   " lanes" + at);
  Trace scratch;
  report.check(
      same(base,
           traced_rep(g, seed, kGateRep, lanes, g.compiled, scratch, "gate")
               .outcome),
      "traced loop != run()" + at);
  if (g.compiled) {
    report.check(same(base, untraced_run(g, seed, kGateRep, lanes, false)),
                 "compiled != interpreted digest" + at);
  }
}

// ------------------------------------------------------- sampler probes

// Size of the Multinomial(h, d) outcome space, C(h+d−1, d−1).
double outcome_space(std::uint64_t h, std::size_t d) {
  double c = 1.0;
  for (std::size_t k = 1; k < d; ++k) {
    c = c * static_cast<double>(h + k) / static_cast<double>(k);
  }
  return std::round(c);
}

// Sampler mode, reset cost and per-draw cost at (h, d, n), measured through
// the public ObservationSampler calls.  The weights are a 50/50 display mix
// of symbols 0 and 1 through the workload's uniform noise.
void sampler_metrics(std::uint64_t h, std::size_t d, std::uint64_t n,
                     double delta, bool by_index, Report& report) {
  const NoiseMatrix noise = NoiseMatrix::uniform(d, delta);
  const Matrix& m = noise.matrix();
  std::vector<double> q(d);
  for (std::size_t to = 0; to < d; ++to) q[to] = 0.5 * (m(0, to) + m(1, to));

  CpuRotation rotation;
  ObservationSampler sampler;
  std::vector<double> resets;
  const auto budget = Clock::now();
  while (resets.size() < 5 || (since(budget) < 0.2 && resets.size() < 20000)) {
    rotation.next();
    const auto t0 = Clock::now();
    sampler.reset(h, q, true, n);
    resets.push_back(since(t0));
  }
  const bool inverse = sampler.mode() == ObservationSampler::Mode::InverseCdf;
  report.metric("rng.reset_us", median(resets) * 1e6, "us");
  report.metric("rng.outcomes", outcome_space(h, d), "count");
  report.count("rng.inverse_cdf", inverse ? 1 : 0);

  Rng rng(0x5eed, 7);
  SymbolCounts obs(d);
  std::uint64_t sink = 0;
  std::vector<double> per_draw;
  constexpr std::uint64_t kBatch = 20000;
  const auto start = Clock::now();
  while (per_draw.size() < 5 || (since(start) < 0.3 && per_draw.size() < 50)) {
    rotation.next();
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      if (by_index && inverse) {
        sink += sampler.sample_index(rng);
      } else {
        obs.clear();
        sampler.sample(rng, obs);
        sink += obs[1];
      }
    }
    per_draw.push_back(since(t0) / static_cast<double>(kBatch));
  }
  report.metric("rng.draw_ns", median(per_draw) * 1e9, "ns");
  [[maybe_unused]] volatile std::uint64_t keep = sink;  // the draws are used
}

// --------------------------------------------------------- agent drivers

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  unsigned lanes = 1;
  Trace trace;
};

// Setup is timed in a slice of kSetupSlice seconds before every timed job,
// so that its samples spread over the whole run like the jobs' and meet
// the same fast and slow spells of the host; a slice of one second times
// protocol construction in the traced run.
constexpr double kSetupSlice = 0.025;
constexpr double kSetupSeconds = 1.0;

// Constructs and discards instances for about `seconds` (at least three)
// and appends their setup times to `setup`; `k` numbers the instances
// across calls so each draws its own substream.
void time_setups(const AgentWorkload& w, std::uint64_t seed, double seconds,
                 std::uint64_t& k, std::vector<double>& setup,
                 std::vector<double>* factory = nullptr) {
  const auto start = Clock::now();
  for (int i = 0; i < 3 || since(start) < seconds; ++i, ++k) {
    Rng init(seed, 2 * k);
    const auto t0 = Clock::now();
    Instance inst = make_instance(w, w.compiled, init, kTimedLanes);
    setup.push_back(since(t0));
    if (factory != nullptr) factory->push_back(inst.factory_s);
  }
}

// True once another repetition of the mean length so far would overrun
// the time budget.
bool budget_spent(Clock::time_point start, std::uint64_t done,
                  double seconds) {
  if (done == 0) return false;
  const double elapsed = since(start);
  return elapsed + elapsed / static_cast<double>(done) > seconds;
}

// The timed statistic of a run's samples: their 10th percentile.  On a
// shared host the same job runs in a fast state or in one about 1.4×
// slower, and the share of slow samples drifts over minutes; noise only
// ever adds time, and the low percentile follows the fast state where a
// median jumps between the two.
double timed(const std::vector<double>& samples) {
  return quantile(samples, 0.1);
}

// Runs job(0), job(1), … one after another until another job of the mean
// length so far would overrun `seconds`, and returns their results.
template <class Job>
auto repeat_for(double seconds, const Job& job)
    -> std::vector<decltype(job(std::uint64_t{}))> {
  std::vector<decltype(job(std::uint64_t{}))> out;
  const auto start = Clock::now();
  for (std::uint64_t k = 0; !budget_spent(start, k, seconds); ++k) {
    out.push_back(job(k));
  }
  return out;
}

// One timed job of an untraced run: its wall time and the peak resident
// memory it reached.
struct JobSample {
  double wall_s = 0.0;
  double peak_mb = 0.0;
};

// Reports run_s and peak_rss_mb from the jobs of an untraced run, and
// setup_s from the setup slices between them: the 10th percentile of the
// times (see timed()) and the median of the per-job peaks, which depend on
// each job's seed.
void report_jobs(const std::vector<JobSample>& jobs,
                 const std::vector<double>& setup, const char* what,
                 Report& report) {
  std::vector<double> wall, peak;
  for (const JobSample& j : jobs) {
    wall.push_back(j.wall_s);
    peak.push_back(j.peak_mb);
  }
  report.metric("setup_s", timed(setup), "s");
  report.metric("run_s", timed(wall), "s");
  report.metric("peak_rss_mb", median(peak), "MB");
  std::printf("# %s %zu, wall s:", what, wall.size());
  for (const double s : wall) std::printf(" %.4f", s);
  std::printf("\n# wall s p10 %.4f, median %.4f; setup samples %zu; peak MB "
              "median %.2f, max %.2f\n",
              timed(wall), median(wall), setup.size(), median(peak),
              quantile(peak, 1.0));
  std::printf("# within-run spread: setup %.4f", spread(setup));
  if (wall.size() >= 2) std::printf(", wall %.4f", spread(wall));
  std::printf("\n");
}

// Untraced run: jobs one after another until the time budget is spent,
// each a setup slice and then one timed repetition, moved to the next CPU
// of the rotation.
void agent_untraced(const AgentWorkload& w, RunContext& ctx, Report& report) {
  CpuRotation rotation;
  std::vector<double> setup;
  std::uint64_t setups = 0;
  const std::vector<JobSample> jobs = repeat_for(
      ctx.seconds, [&](std::uint64_t rep) {
        rotation.next();
        time_setups(w, ctx.seed, kSetupSlice, setups, setup);
        Rng init(ctx.seed, 2 * rep);
        Rng rng(ctx.seed, 2 * rep + 1);
        reset_peak_rss();
        Instance inst = make_instance(w, w.compiled, init, kTimedLanes);
        const auto t1 = Clock::now();
        const RunResult r = run(*inst.protocol, *inst.engine, inst.noise,
                                w.pop.correct_opinion(),
                                run_config(w, inst.rounds, kTimedLanes,
                                           w.compiled),
                                rng);
        const JobSample job{.wall_s = since(t1), .peak_mb = peak_rss_mb()};
        report.check(r.all_correct_at_end,
                     w.name + " rep " + std::to_string(rep) + ": " +
                         std::to_string(r.correct_at_end) + "/" +
                         std::to_string(w.pop.n) + " correct after " +
                         std::to_string(r.rounds_run) + " rounds");
        return job;
      });
  report_jobs(jobs, setup, "reps", report);
}

void zero_sweep_metrics(Report& report) {
  for (const char* phase : {"cold", "warm"}) {
    for (const char* m : {"analysis.reps_computed", "analysis.reps_cached",
                          "analysis.cache_quarantined", "analysis.retries"}) {
      report.count(std::string(m) + "." + phase, 0);
    }
  }
  report.metric("analysis.rep_p50_s", 0.0, "s");
  report.metric("analysis.rep_max_s", 0.0, "s");
  report.metric("analysis.warm_s", 0.0, "s");
  report.metric("analysis.busy_frac", 0.0, "ratio");
  report.metric("analysis.cache_bytes", 0.0, "bytes");
}

// Traced run: pairs of (run(), traced loop) on the same repetition seeds,
// then the lane-scaling and representation comparisons, then the sampler
// probes.  Every comparison is also a gate check.
void agent_traced(const AgentWorkload& w, RunContext& ctx, Report& report) {
  Trace& trace = ctx.trace;
  std::vector<double> setup, factory;
  std::uint64_t setups = 0;
  time_setups(w, ctx.seed, kSetupSeconds, setups, setup, &factory);

  std::vector<double> untraced_s, traced_s, step_s, count_s, coverage_s;
  std::vector<double> p50_ms, tail_ms;
  double tail_pct = 0.0;
  TracedRun first;
  const auto start = Clock::now();
  for (std::uint64_t rep = 0; !budget_spent(start, rep, ctx.seconds); ++rep) {
    double plain = 0.0;
    const Outcome reference =
        untraced_run(w, ctx.seed, rep, kTimedLanes, w.compiled, &plain);
    TracedRun t = traced_rep(w, ctx.seed, rep, kTimedLanes, w.compiled, trace,
                             "run rep " + std::to_string(rep));
    report.check(same(reference, t.outcome),
                 w.name + " rep " + std::to_string(rep) +
                     ": traced loop != run()");
    report.check(t.outcome.result.all_correct_at_end,
                 w.name + " rep " + std::to_string(rep) + ": no consensus");
    const std::vector<Span> spans = trace.spans();
    const double total = spans[static_cast<std::size_t>(t.root)].duration();
    untraced_s.push_back(plain);
    traced_s.push_back(total);
    step_s.push_back(t.step_total);
    count_s.push_back(t.count_total);
    coverage_s.push_back(coverage(spans, t.root));
    p50_ms.push_back(quantile(t.step_s, 0.5) * 1e3);
    tail_pct = tail_percentile(t.step_s.size());
    tail_ms.push_back((tail_pct > 0 ? quantile(t.step_s, tail_pct / 100.0)
                                    : quantile(t.step_s, 1.0)) *
                      1e3);
    if (rep == 0) first = std::move(t);
  }
  const double rounds = static_cast<double>(first.step_s.size());
  report.metric("model.step_s", median(step_s), "s");
  report.metric("model.step_p50_ms", median(p50_ms), "ms");
  report.metric("model.step_tail_ms", median(tail_ms), "ms");
  report.metric("model.step_tail_pct", tail_pct, "pct");
  report.metric("sim.count_correct_s", median(count_s), "s");
  report.metric("sim.count_correct_share",
                median(count_s) / median(traced_s), "ratio");
  report.metric("trace.coverage", median(coverage_s), "ratio");
  report.metric("trace.overhead_frac",
                median(traced_s) / median(untraced_s) - 1.0, "ratio");
  report.count("core.virtual_updates", first.virtual_updates);
  report.count("core.declined_rounds", first.declined_rounds);
  report.metric("core.compiled_round_frac",
                w.compiled ? static_cast<double>(first.compiled_rounds) / rounds
                           : 0.0,
                "ratio");
  report.metric("core.factory_s", midmean(factory), "s");

  // Lane scaling: step time at 1 lane ÷ at N lanes over the same rounds
  // of repetition 0 (0: the full horizon), digests equal.
  const TracedRun one = traced_rep(w, ctx.seed, 0, 1, w.compiled, trace,
                                   "lanes=1", w.lane_rounds);
  const TracedRun many =
      traced_rep(w, ctx.seed, 0, ctx.lanes, w.compiled, trace,
                 "lanes=" + std::to_string(ctx.lanes), w.lane_rounds);
  report.check(same(one.outcome, many.outcome),
               w.name + ": digest at 1 lane != at " +
                   std::to_string(ctx.lanes) + " lanes");
  report.metric("common.pool.lane_speedup", one.step_total / many.step_total,
                "x");
  report.count("common.pool.lane_rounds", one.step_s.size());

  // Representation: interpreted ÷ compiled step time over the full horizon.
  double compiled_speedup = 0.0;
  if (w.compiled) {
    const TracedRun interp =
        traced_rep(w, ctx.seed, 0, kTimedLanes, false, trace, "interpreted");
    report.check(same(interp.outcome, first.outcome),
                 w.name + ": compiled != interpreted digest");
    compiled_speedup = interp.step_total / first.step_total;
  }
  report.metric("core.compiled_step_speedup", compiled_speedup, "x");

  sampler_metrics(w.holdings(), w.alphabet(), w.pop.n, w.delta, w.compiled,
                  report);
  zero_sweep_metrics(report);
}

// ----------------------------------------------------------- the sweep

constexpr double kSweepDelta = 0.2;

// The sweep's populations, its repetitions per cell, and the largest n
// with an h = 1 cell.
struct SweepGrid {
  std::vector<std::uint64_t> ns;
  std::uint64_t reps = 2;
  std::uint64_t max_n_h1 = 250;
};

// The THM4-N grid cut to n ≤ 2000, 2 repetitions and one h = 1 cell, so a
// cold pass on one worker takes about two seconds: the full grid (n to
// 16000, 8 repetitions, h = 1 up to n = 500) costs about a CPU minute,
// and n = 500, h = 1 alone six seconds.
SweepGrid sweep_grid(bool smoke) {
  if (smoke) return {{250, 500}};
  return {{250, 500, 1000, 2000}};
}

// The THM4-N grid of bench/tab_thm4_scaling_n.cpp: SF with h ∈ {1 (n ≤
// max_n_h1), √n, n}, one source, δ = 0.2; cell seeds base + n + h.  `wrap`
// decorates each cell's factory (the traced sweep times repetitions).
using FactoryWrap = std::function<ProtocolFactory(ProtocolFactory)>;

std::vector<ExperimentCell> thm4_cells(const SweepGrid& grid,
                                       std::uint64_t base,
                                       const FactoryWrap& wrap = {}) {
  std::vector<ExperimentCell> cells;
  for (const std::uint64_t n : grid.ns) {
    const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};
    std::vector<std::uint64_t> hs = {
        static_cast<std::uint64_t>(std::llround(std::sqrt(n))), n};
    if (n <= grid.max_n_h1) hs.insert(hs.begin(), 1);
    for (const std::uint64_t h : hs) {
      ProtocolFactory make = [pop, h](Rng&) -> std::unique_ptr<PullProtocol> {
        return std::make_unique<SourceFilter>(pop, Holdings{h},
                                              Delta{kSweepDelta});
      };
      cells.push_back(ExperimentCell{
          .label = "n=" + std::to_string(n) + " h=" + std::to_string(h),
          .make_protocol = wrap ? wrap(std::move(make)) : std::move(make),
          .noise = NoiseMatrix::uniform(2, kSweepDelta),
          .correct = pop.correct_opinion(),
          .cfg = RunConfig{.h = h},
          .seed = base + n + h,
          .protocol_digest = CellKey()
                                 .str("SourceFilter")
                                 .u64(pop.n)
                                 .u64(pop.s1)
                                 .u64(pop.s0)
                                 .u64(h)
                                 .f64(kSweepDelta)
                                 .f64(kDefaultC1.get())
                                 .digest()});
    }
  }
  return cells;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

struct SweepPass {
  std::vector<CellStats> stats;
  double wall_s = 0.0;
};

SweepPass sweep_pass(const std::vector<ExperimentCell>& cells,
                     const SweepGrid& grid, const fs::path& cache) {
  SchedulerOptions opts;
  opts.threads = kTimedLanes;
  opts.engine_threads = 1;
  opts.stop.max_reps = grid.reps;
  opts.stop.min_reps = grid.reps;
  opts.cache_dir = cache.string();
  const auto t0 = Clock::now();
  SweepPass pass;
  pass.stats = run_experiment(cells, opts);
  pass.wall_s = since(t0);
  return pass;
}

// Gate for one sweep pass: every cell complete, undegraded and without a
// failed repetition, and at least three quarters of the pass's repetitions
// converged (SF at n = 250 misses consensus in about one repetition of
// eight — the w.h.p. guarantee at small n, not a program fault, so no
// single cell is held to it); a warm pass must also replay everything and
// match the cold statistics exactly.
void check_sweep(const std::vector<ExperimentCell>& cells,
                 const SweepGrid& grid, const SweepPass& pass,
                 const SweepPass* cold, Report& report) {
  const std::string phase = cold != nullptr ? "warm " : "cold ";
  std::uint64_t converged = 0;
  for (const CellStats& s : pass.stats) converged += s.successes;
  const std::uint64_t reps = cells.size() * grid.reps;
  report.check(4 * converged >= 3 * reps,
               "sweep " + phase + "converged " + std::to_string(converged) +
                   "/" + std::to_string(reps));
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellStats& s = pass.stats[c];
    const std::string tag = phase + cells[c].label;
    bool ok = !s.degraded && s.failed_reps == 0 && s.reps == grid.reps;
    if (cold != nullptr) {
      const CellStats& k = cold->stats[c];
      ok = ok && s.reps_computed == 0 && s.reps_cached == grid.reps &&
           s.successes == k.successes &&
           s.mean_rounds_run == k.mean_rounds_run &&
           s.mean_convergence_round == k.mean_convergence_round;
    }
    report.check(ok, "sweep " + tag + ": successes " +
                         std::to_string(s.successes) + "/" +
                         std::to_string(s.reps) +
                         (s.degraded ? " degraded" : ""));
  }
}

void add_pass_counts(const SweepPass& pass, const std::string& phase,
                     Report& report) {
  std::uint64_t computed = 0, cached = 0, quarantined = 0, retries = 0;
  for (const CellStats& s : pass.stats) {
    computed += s.reps_computed;
    cached += s.reps_cached;
    quarantined += s.cache_quarantined;
    retries += s.transient_retries;
  }
  report.count("analysis.reps_computed." + phase, computed);
  report.count("analysis.reps_cached." + phase, cached);
  report.count("analysis.cache_quarantined." + phase, quarantined);
  report.count("analysis.retries." + phase, retries);
}

// A fresh, empty cache directory under the output directory.
fs::path fresh_cache(const fs::path& out_dir, std::uint64_t k) {
  const fs::path dir = out_dir / ("sweep-cache-" + std::to_string(getpid()) +
                                  "-" + std::to_string(k));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Warm replays timed by the traced sweep, in seconds.
constexpr double kWarmSeconds = 1.0;

void sweep_untraced(RunContext& ctx, const fs::path& out_dir,
                    Report& report) {
  const SweepGrid grid = sweep_grid(ctx.smoke);
  const auto cells = thm4_cells(grid, ctx.seed);
  // Each job: a setup slice, then a cold pass into its own fresh cache
  // directory and one warm replay of it for the gate.  Building the cell
  // list takes microseconds, so a setup sample is the mean of a batch.
  CpuRotation rotation;
  std::vector<double> setup;
  const std::vector<JobSample> jobs =
      repeat_for(ctx.seconds, [&](std::uint64_t k) {
        rotation.next();
        const auto slice = Clock::now();
        do {
          constexpr int kBatch = 200;
          const auto t0 = Clock::now();
          for (int b = 0; b < kBatch; ++b) {
            const auto built = thm4_cells(grid, ctx.seed);
          }
          setup.push_back(since(t0) / kBatch);
        } while (since(slice) < kSetupSlice);
        const fs::path cache = fresh_cache(out_dir, k);
        reset_peak_rss();
        const SweepPass cold = sweep_pass(cells, grid, cache);
        const JobSample job{.wall_s = cold.wall_s, .peak_mb = peak_rss_mb()};
        check_sweep(cells, grid, cold, nullptr, report);
        check_sweep(cells, grid, sweep_pass(cells, grid, cache), &cold,
                    report);
        fs::remove_all(cache);
        return job;
      });
  report_jobs(jobs, setup, "sweeps", report);
}

void sweep_traced(RunContext& ctx, const fs::path& out_dir, Report& report) {
  Trace& trace = ctx.trace;
  const SweepGrid grid = sweep_grid(ctx.smoke);

  // Untraced reference pass for the overhead ratio.
  const auto plain_cells = thm4_cells(grid, ctx.seed);
  const fs::path plain_cache = fresh_cache(out_dir, 0);
  const SweepPass plain = sweep_pass(plain_cells, grid, plain_cache);
  check_sweep(plain_cells, grid, plain, nullptr, report);
  fs::remove_all(plain_cache);

  // Traced passes: each repetition's span runs from its factory call to the
  // destruction of its ObservedProtocol, parented to the pass's span.
  int root = -1;
  std::atomic<double> factory_s{0.0};
  std::atomic<std::uint64_t> virtual_updates{0};
  const FactoryWrap wrap = [&](ProtocolFactory make) -> ProtocolFactory {
    return [&, make](Rng& init) -> std::unique_ptr<PullProtocol> {
      const double t0 = trace.now();
      auto inner = make(init);
      factory_s.fetch_add(trace.now() - t0);
      return std::make_unique<ObservedProtocol>(
          std::move(inner),
          [&, t0, parent = root](const ObservedProtocol& done) {
            virtual_updates.fetch_add(done.virtual_updates());
            trace.add("rep", t0, trace.now(), parent);
          });
    };
  };
  const auto cells = thm4_cells(grid, ctx.seed, wrap);
  const fs::path cache = fresh_cache(out_dir, 1);
  root = trace.open("sweep cold", -1);
  const SweepPass cold = sweep_pass(cells, grid, cache);
  trace.close(root);
  const int cold_root = root;
  check_sweep(cells, grid, cold, nullptr, report);
  report.metric("analysis.cache_bytes", static_cast<double>(dir_bytes(cache)),
                "bytes");
  root = trace.open("sweep warm", -1);
  const SweepPass warm = sweep_pass(cells, grid, cache);
  trace.close(root);
  check_sweep(cells, grid, warm, &cold, report);
  // A warm replay reads only the cache and takes well under a millisecond:
  // repeat it for kWarmSeconds.
  std::vector<double> warm_s;
  const auto warm_start = Clock::now();
  for (int r = 0; r < 20 || since(warm_start) < kWarmSeconds; ++r) {
    warm_s.push_back(sweep_pass(cells, grid, cache).wall_s);
  }
  report.metric("analysis.warm_s", timed(warm_s), "s");
  fs::remove_all(cache);
  add_pass_counts(cold, "cold", report);
  add_pass_counts(warm, "warm", report);

  const std::vector<Span> spans = trace.spans();
  std::vector<double> reps;
  for (const Span& s : spans) {
    if (s.parent == cold_root) reps.push_back(s.duration());
  }
  const double busy = coverage(spans, cold_root, kTimedLanes);
  report.metric("analysis.rep_p50_s", median(reps), "s");
  report.metric("analysis.rep_max_s", quantile(reps, 1.0), "s");
  report.metric("analysis.busy_frac", busy, "ratio");
  report.metric("trace.coverage", busy, "ratio");
  report.metric("trace.overhead_frac", cold.wall_s / plain.wall_s - 1.0,
                "ratio");
  report.metric("core.factory_s", factory_s.load(), "s");

  // The agent-loop layers are not on the sweep's bench-visible path.
  for (const char* m : {"model.step_s", "sim.count_correct_s"}) {
    report.metric(m, 0.0, "s");
  }
  for (const char* m : {"model.step_p50_ms", "model.step_tail_ms"}) {
    report.metric(m, 0.0, "ms");
  }
  report.metric("model.step_tail_pct", 0.0, "pct");
  report.metric("sim.count_correct_share", 0.0, "ratio");
  report.metric("common.pool.lane_speedup", 0.0, "x");
  report.count("common.pool.lane_rounds", 0);
  report.count("core.declined_rounds", 0);
  report.metric("core.compiled_round_frac", 0.0, "ratio");
  report.metric("core.compiled_step_speedup", 0.0, "x");
  report.count("core.virtual_updates", virtual_updates.load());

  // Sampler at the grid's largest √n cell.
  const std::uint64_t n = grid.ns.back();
  sampler_metrics(static_cast<std::uint64_t>(std::llround(std::sqrt(n))), 2, n,
                  kSweepDelta, false, report);
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0|1");
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// Per root span: total, self time and child coverage — the summary a
// reader of the trace file checks first.
std::string roots_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != -1) continue;
    const int id = static_cast<int>(i);
    os << (os.tellp() > 1 ? ",\n" : "\n") << "  {\"id\": " << i
       << ", \"name\": " << quoted(spans[i].name)
       << ", \"total_s\": " << fmt(spans[i].duration())
       << ", \"self_s\": " << fmt(self_time(spans, id))
       << ", \"coverage\": " << fmt(coverage(spans, id)) << "}";
  }
  os << "\n]";
  return os.str();
}

std::string spans_json(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
       << ", \"name\": " << quoted(s.name) << ", \"start\": " << fmt(s.start)
       << ", \"end\": " << fmt(s.end) << ", \"parent\": " << s.parent << "}";
  }
  os << "\n]";
  return os.str();
}

int run_main(const Args& args) {
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.smoke = args.smoke;
  ctx.lanes = affinity_cpus();
  const double load_start = load_1min();
  const fs::path out_dir(args.out_dir);
  fs::create_directories(out_dir);

  Report report;
  const bool sweep = args.workload == "thm4_sweep";
  if (sweep) {
    if (args.trace) {
      sweep_traced(ctx, out_dir, report);
    } else {
      sweep_untraced(ctx, out_dir, report);
    }
  } else {
    const auto all = agent_workloads();
    const auto it = std::find_if(all.begin(), all.end(), [&](const auto& w) {
      return w.name == args.workload;
    });
    if (it == all.end()) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    const AgentWorkload w = args.smoke ? scaled(*it, kSmokeN) : *it;
    const auto gate_start = Clock::now();
    agent_gate(w, ctx.seed, ctx.lanes, report);
    std::printf("# gate %.3f s\n", since(gate_start));
    if (args.trace) {
      agent_traced(w, ctx, report);
    } else {
      agent_untraced(w, ctx, report);
    }
  }
  if (!args.trace) {
    report.metric(
        "ok_frac",
        1.0 - static_cast<double>(report.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(1,
                                                              report.attempted())),
        "ratio");
  }

  std::ostringstream env;
  env << "{\"workload\": " << quoted(args.workload)
      << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
      << ", \"smoke\": " << args.smoke << ", \"seconds\": " << fmt(args.seconds)
      << ", \"nproc\": " << affinity_cpus()
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"engine_lanes\": " << kTimedLanes
      << ", \"scheduler_workers\": " << (sweep ? kTimedLanes : 0U)
      << ", \"gate_lanes\": " << (sweep ? 1U : ctx.lanes)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
      << ", \"load_start\": " << fmt(load_start)
      << ", \"load_end\": " << fmt(load_1min()) << "}";
  std::printf("# env %s\n", env.str().c_str());

  const std::string stem = args.workload + "-seed" + std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  std::ofstream file(out_dir / (stem + ".json"));
  file << "{\"env\": " << env.str() << ",\n \"result\": " << report.json();
  if (args.trace) {
    const std::vector<Span> spans = ctx.trace.spans();
    file << ",\n \"roots\": " << roots_json(spans)
         << ",\n \"spans\": " << spans_json(spans);
  }
  file << "}\n";

  std::printf("%s\n", report.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
