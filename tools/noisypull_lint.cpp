// noisypull_lint — repo-specific tree-aware linter for the noisypull tree.
//
// Generic compilers and clang-tidy cannot check the invariants this
// reproduction's empirical claims rest on: bit-for-bit deterministic
// simulation from salted (round, agent) RNG substreams, double-only
// probability arithmetic, the project's assertion discipline, and the
// library's include-layer DAG.  This tool enforces them with a lightweight
// tokenizer (comments, strings, raw strings, and preprocessor directives
// are handled; no libclang), a declarative per-rule scope table, and a
// whole-tree include-graph pass:
//
// Per-file rules (scope column in kRules):
//   nondeterministic-rng   std::rand / srand / std::random_device / time() /
//                          clock() / random_shuffle / default-seeded
//                          std::mt19937 anywhere outside src/noisypull/rng/.
//                          All simulation randomness must flow through the
//                          seeded noisypull::Rng substreams.
//   float-type             `float` types or float literals (0.5f) anywhere:
//                          probability/statistics arithmetic is double-only,
//                          so tables cannot drift with optimization levels.
//   pragma-once            every .hpp starts (first directive) with
//                          `#pragma once`.
//   bare-assert            bare assert() or <cassert>/<assert.h> includes;
//                          internal invariants use NOISYPULL_ASSERT (aborts
//                          in every build type), preconditions NOISYPULL_CHECK.
//   unordered-container    std::unordered_{map,set,...} under src/noisypull/
//                          or bench/: hash-order iteration feeding results is
//                          a nondeterminism hazard, so deterministic paths
//                          use ordered containers or suppress explicitly.
//   iostream-in-header     #include <iostream> in src/noisypull/ headers
//                          (static-init cost and hidden I/O in the core
//                          library; use <ostream>/<iosfwd> in interfaces).
//   threading-header       #include <thread>/<atomic>/<mutex>/
//                          <condition_variable> under src/noisypull/ or
//                          bench/ outside an explicit allowlist (the shared
//                          ThreadPool, the repetition runner, the fault
//                          accumulators, and the kernel bench).  Ad-hoc
//                          threading is a determinism hazard; parallelism
//                          routes through Engine::set_threads and the
//                          counter-substream block kernel.
//   raw-file-io            std::ofstream or rename() under src/noisypull/
//                          or bench/ outside common/atomic_io: every durable
//                          artifact (cache entries, manifests, CSV/JSON)
//                          must publish through the crash-safe tmp+rename
//                          seam, or kill-and-resume guarantees silently rot.
//   substream-discipline   Rng constructed with a bare integer-literal
//                          argument outside src/noisypull/rng/: raw magic
//                          seeds escape the counter-substream derivation
//                          (seed ^ salt, 2r / 2r+1 stream splits) that the
//                          replay and lane-invariance guarantees rest on.
//                          Seeds and stream ids must be named constants or
//                          derived expressions.
//   allow-without-reason   an `nplint: allow(rule)` missing its ` -- why`.
//                          Suppressions are audit records; a naked one is
//                          indistinguishable from a silenced bug.
//
// Tree rules (run over the include graph of all linted files at once):
//   layering               enforces the declared layer DAG over
//                          src/noisypull/ module directories:
//                            layer 0  common core linalg rng
//                            layer 1  model noise
//                            layer 2  baselines fault push sim
//                            layer 3  analysis theory
//                          A file may include only its own layer or below;
//                          include cycles, upward includes, includes of the
//                          external-consumer umbrella noisypull/noisypull.hpp
//                          from inside the library, and module directories
//                          missing from the DAG all fire.
//
// Suppression: a comment `nplint: allow(rule-name) -- reason` on the
// offending line, or `nplint: allow-next-line(rule-name) -- reason` on the
// line above it.  The reason is mandatory (allow-without-reason).
//
// Usage:
//   noisypull_lint [--format=text|json|sarif] <file-or-dir>...
//   noisypull_lint --self-test <fixture-dir>
//
// Exit status: 0 clean, 1 findings, 2 usage/IO errors.  `--format=json`
// emits a flat findings array; `--format=sarif` emits SARIF 2.1.0 so CI can
// surface findings as inline PR annotations.
//
// Fixture files declare their virtual location and expected findings in
// comments (`lint-path:`, `expect: rule`, `expect-anywhere: rule`); the
// self-test fails if any expected finding does not fire or any unexpected
// one does — which is how each rule is proven to both fire and stay silent
// (tests/lint_fixtures/, wired as a ctest in tools/CMakeLists.txt).  Tree
// rules are exercised the same way: fixtures under one directory form one
// include graph (tests/lint_fixtures/tree_bad/, tree_clean/).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Lexing

enum class TokKind { Identifier, Number, Punct };

struct Token {
  std::string text;
  int line = 0;
  TokKind kind = TokKind::Punct;
};

struct Directive {
  std::vector<std::string> words;  // e.g. {"#", "pragma", "once"}
  int line = 0;
};

struct Comment {
  std::string text;
  int line = 0;  // line where the comment starts
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Directive> directives;
  std::vector<Comment> comments;
};

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool is_ident_char(char c) {
  return is_ident_start(c) || (c >= '0' && c <= '9');
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Splits a preprocessor directive body into whitespace-separated words,
// keeping <...> / "..." include arguments as single words.
std::vector<std::string> directive_words(const std::string& body) {
  std::vector<std::string> words{"#"};
  std::size_t i = 0;
  while (i < body.size()) {
    if (body[i] == ' ' || body[i] == '\t') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < body.size() && body[j] != ' ' && body[j] != '\t') ++j;
    words.push_back(body.substr(i, j - i));
    i = j;
  }
  return words;
}

// One pass over the source: produces identifier/number/punct tokens with
// comments, string literals, and preprocessor directives separated out so
// rules never false-positive on prose or quoted rule names.
LexedFile lex(const std::string& src) {
  LexedFile out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool at_line_start = true;  // only whitespace seen on this line so far

  auto advance = [&](std::size_t count) {
    for (std::size_t k = 0; k < count && i < n; ++k, ++i) {
      if (src[i] == '\n') {
        ++line;
        at_line_start = true;
      }
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n' || c == ' ' || c == '\t' || c == '\r') {
      advance(1);
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const int start_line = line;
      std::size_t j = i;
      while (j < n && src[j] != '\n') ++j;
      out.comments.push_back({src.substr(i, j - i), start_line});
      advance(j - i);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) ++j;
      j = std::min(n, j + 2);
      out.comments.push_back({src.substr(i, j - i), start_line});
      advance(j - i);
      continue;
    }
    // Preprocessor directive: consume the whole (continued) logical line.
    if (c == '#' && at_line_start) {
      const int start_line = line;
      std::size_t j = i;
      while (j < n) {
        if (src[j] == '\n') {
          if (j > i && src[j - 1] == '\\') {
            ++j;
            continue;
          }
          break;
        }
        ++j;
      }
      std::string body = src.substr(i + 1, j - i - 1);
      // Strip trailing line comment from the directive body.
      if (const auto pos = body.find("//"); pos != std::string::npos) {
        out.comments.push_back({body.substr(pos), start_line});
        body.resize(pos);
      }
      out.directives.push_back({directive_words(body), start_line});
      advance(j - i);
      continue;
    }
    at_line_start = false;
    // Raw string literal.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim.push_back(src[j++]);
      const std::string close = ")" + delim + "\"";
      const auto end = src.find(close, j);
      advance((end == std::string::npos ? n : end + close.size()) - i);
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != c) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      advance(std::min(n, j + 1) - i);
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n && is_ident_char(src[j])) ++j;
      // A string literal prefixed by an encoding (u8"...") lexes as an
      // identifier followed by the string — good enough for these rules.
      out.tokens.push_back({src.substr(i, j - i), line, TokKind::Identifier});
      advance(j - i);
      continue;
    }
    if (is_digit(c)) {
      std::size_t j = i;
      while (j < n &&
             (is_ident_char(src[j]) || src[j] == '.' || src[j] == '\'' ||
              ((src[j] == '+' || src[j] == '-') && j > i &&
               (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                src[j - 1] == 'p' || src[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back({src.substr(i, j - i), line, TokKind::Number});
      advance(j - i);
      continue;
    }
    // Punctuation; merge the two-char tokens the rules care about.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({"::", line, TokKind::Punct});
      advance(2);
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({"->", line, TokKind::Punct});
      advance(2);
      continue;
    }
    out.tokens.push_back({std::string(1, c), line, TokKind::Punct});
    advance(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Annotations (suppressions + fixture expectations) from comments

struct Annotations {
  std::map<int, std::set<std::string>> allow;   // line → suppressed rules
  std::map<int, bool> allow_has_reason;         // line → ` -- why` present
  std::map<int, std::set<std::string>> expect;  // line → expected rules
  std::set<std::string> expect_anywhere;        // rules expected on any line
  std::string lint_path;                        // fixture virtual path
};

// Extracts comma/space-separated rule names following `key` in comment text.
void parse_rule_list(const std::string& text, std::size_t after,
                     std::set<std::string>& out) {
  std::size_t i = after;
  while (i < text.size()) {
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == ',' || text[i] == '('))
      ++i;
    std::size_t j = i;
    while (j < text.size() && (is_ident_char(text[j]) || text[j] == '-')) ++j;
    if (j == i) break;
    out.insert(text.substr(i, j - i));
    i = j;
    if (i < text.size() && text[i] == ')') break;
  }
}

// A suppression reason is ` -- free text` (or an em dash) after the closing
// parenthesis of the allow list, with at least one alphanumeric character.
bool allow_reason_present(const std::string& text, std::size_t allow_pos) {
  const auto close = text.find(')', allow_pos);
  if (close == std::string::npos) return false;
  const std::string rest = text.substr(close + 1);
  auto dash = rest.find("--");
  if (dash == std::string::npos) dash = rest.find("\xE2\x80\x94");
  if (dash == std::string::npos) return false;
  for (std::size_t i = dash; i < rest.size(); ++i) {
    if (is_ident_char(rest[i])) return true;
  }
  return false;
}

Annotations parse_annotations(const LexedFile& lexed) {
  Annotations a;
  for (const Comment& c : lexed.comments) {
    if (auto pos = c.text.find("nplint: allow"); pos != std::string::npos) {
      // `allow-next-line(...)` suppresses on the following line — for sites
      // where the offending line has no room for the mandatory reason.
      const bool next_line =
          c.text.compare(pos, 23, "nplint: allow-next-line") == 0;
      const int target = next_line ? c.line + 1 : c.line;
      std::set<std::string> rules;
      parse_rule_list(c.text, pos + (next_line ? 23 : 13), rules);
      if (!rules.empty()) {
        // Prose merely *mentioning* the marker (no rule list) is not a
        // suppression and carries no reason obligation.
        a.allow[target].insert(rules.begin(), rules.end());
        const bool reason = allow_reason_present(c.text, pos);
        a.allow_has_reason[target] = a.allow_has_reason[target] || reason;
      }
    }
    if (auto pos = c.text.find("expect-anywhere:"); pos != std::string::npos) {
      parse_rule_list(c.text, pos + 16, a.expect_anywhere);
    } else if (auto pos2 = c.text.find("expect:"); pos2 != std::string::npos) {
      parse_rule_list(c.text, pos2 + 7, a.expect[c.line]);
    }
    if (auto pos = c.text.find("lint-path:"); pos != std::string::npos) {
      std::size_t i = pos + 10;
      while (i < c.text.size() && c.text[i] == ' ') ++i;
      std::size_t j = i;
      while (j < c.text.size() && c.text[j] != ' ' && c.text[j] != '\n') ++j;
      a.lint_path = c.text.substr(i, j - i);
    }
  }
  return a;
}

// ---------------------------------------------------------------------------
// Findings, scopes, and per-file rules

struct Finding {
  std::string rule;
  int line = 0;
  std::string message;
};

// Coarse tree regions a rule opts into; the fine-grained refinements
// (headers only, rng/ excluded, explicit allowlists) stay inside the rule.
enum ScopeBits : unsigned {
  kScopeSrc = 1u << 0,       // src/noisypull/ (library)
  kScopeBench = 1u << 1,     // bench/
  kScopeTools = 1u << 2,     // tools/
  kScopeTests = 1u << 3,     // tests/
  kScopeExamples = 1u << 4,  // examples/
  kScopeAll = kScopeSrc | kScopeBench | kScopeTools | kScopeTests |
              kScopeExamples,
};

unsigned classify_scope(const std::string& path) {
  if (path.find("src/noisypull") != std::string::npos) return kScopeSrc;
  if (path.find("tests/") != std::string::npos) return kScopeTests;
  if (path.find("bench/") != std::string::npos) return kScopeBench;
  if (path.find("tools/") != std::string::npos) return kScopeTools;
  if (path.find("examples/") != std::string::npos) return kScopeExamples;
  return kScopeAll;  // standalone file: hold it to everything
}

struct FileContext {
  std::string path;  // effective (virtual in self-test) repo path, '/' sep
  bool is_header = false;
  const LexedFile* lexed = nullptr;
  const Annotations* ann = nullptr;
};

bool path_contains(const FileContext& ctx, const std::string& fragment) {
  return ctx.path.find(fragment) != std::string::npos;
}

bool is_member_access(const std::vector<Token>& toks, std::size_t idx) {
  return idx > 0 && (toks[idx - 1].text == "." || toks[idx - 1].text == "->");
}

bool next_is(const std::vector<Token>& toks, std::size_t idx,
             const std::string& text) {
  return idx + 1 < toks.size() && toks[idx + 1].text == text;
}

// nondeterministic-rng: unseeded / wall-clock randomness outside rng/.
void rule_nondeterministic_rng(const FileContext& ctx,
                               std::vector<Finding>& findings) {
  if (path_contains(ctx, "src/noisypull/rng/")) return;
  const auto& toks = ctx.lexed->tokens;
  static const std::set<std::string> kBannedIdents = {
      "srand", "random_device", "random_shuffle"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (kBannedIdents.count(t.text) != 0) {
      findings.push_back({"nondeterministic-rng", t.line,
                          t.text + " is nondeterministic; use the seeded "
                                   "noisypull::Rng substreams"});
      continue;
    }
    if (t.text == "rand" && !is_member_access(toks, i)) {
      findings.push_back({"nondeterministic-rng", t.line,
                          "std::rand is nondeterministic; use the seeded "
                          "noisypull::Rng substreams"});
      continue;
    }
    if ((t.text == "time" || t.text == "clock") && next_is(toks, i, "(") &&
        !is_member_access(toks, i)) {
      findings.push_back({"nondeterministic-rng", t.line,
                          t.text + "() reads the wall clock; simulations must "
                                   "be reproducible from the seed alone"});
      continue;
    }
    if (t.text == "mt19937" || t.text == "mt19937_64") {
      // Default-seeded declaration: `std::mt19937 gen;` / `gen{}` / `gen()`.
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == TokKind::Identifier) ++j;
      const bool argless =
          j < toks.size() &&
          (toks[j].text == ";" ||
           (toks[j].text == "(" && next_is(toks, j, ")")) ||
           (toks[j].text == "{" && next_is(toks, j, "}")));
      if (argless) {
        findings.push_back({"nondeterministic-rng", t.line,
                            "default-seeded std::" + t.text +
                                " is nondeterministic across standard "
                                "libraries; seed noisypull::Rng instead"});
      }
    }
  }
}

// float-type: probability/statistics arithmetic is double-only.
void rule_float_type(const FileContext& ctx, std::vector<Finding>& findings) {
  for (const Token& t : ctx.lexed->tokens) {
    if (t.kind == TokKind::Identifier && t.text == "float") {
      findings.push_back({"float-type", t.line,
                          "probability paths are double-only; single "
                          "precision silently degrades noise statistics"});
      continue;
    }
    if (t.kind == TokKind::Number && !t.text.empty() &&
        (t.text.back() == 'f' || t.text.back() == 'F') &&
        t.text.compare(0, 2, "0x") != 0 && t.text.compare(0, 2, "0X") != 0 &&
        (t.text.find('.') != std::string::npos ||
         t.text.find('e') != std::string::npos ||
         t.text.find('E') != std::string::npos)) {
      findings.push_back({"float-type", t.line,
                          "float literal " + t.text +
                              "; probability paths are double-only"});
    }
  }
}

// pragma-once: the first directive of every header is `#pragma once`.
void rule_pragma_once(const FileContext& ctx, std::vector<Finding>& findings) {
  if (!ctx.is_header) return;
  const auto& dirs = ctx.lexed->directives;
  if (dirs.empty() || dirs.front().words.size() < 3 ||
      dirs.front().words[1] != "pragma" || dirs.front().words[2] != "once") {
    findings.push_back({"pragma-once", dirs.empty() ? 1 : dirs.front().line,
                        "header must open with #pragma once before any other "
                        "directive"});
  }
}

// bare-assert: internal invariants go through NOISYPULL_ASSERT.
void rule_bare_assert(const FileContext& ctx, std::vector<Finding>& findings) {
  const auto& toks = ctx.lexed->tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::Identifier && t.text == "assert" &&
        next_is(toks, i, "(") && !is_member_access(toks, i)) {
      findings.push_back({"bare-assert", t.line,
                          "bare assert() compiles out under NDEBUG; use "
                          "NOISYPULL_ASSERT (invariants) or NOISYPULL_CHECK "
                          "(preconditions)"});
    }
  }
  for (const Directive& d : ctx.lexed->directives) {
    if (d.words.size() >= 3 && d.words[1] == "include" &&
        (d.words[2] == "<cassert>" || d.words[2] == "<assert.h>")) {
      findings.push_back({"bare-assert", d.line,
                          "include of " + d.words[2] +
                              "; use noisypull/common/check.hpp"});
    }
  }
}

// unordered-container: hash-order iteration in deterministic paths.
void rule_unordered_container(const FileContext& ctx,
                              std::vector<Finding>& findings) {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const Token& t : ctx.lexed->tokens) {
    if (t.kind == TokKind::Identifier && kUnordered.count(t.text) != 0) {
      findings.push_back({"unordered-container", t.line,
                          "std::" + t.text +
                              " iterates in hash order — nondeterminism "
                              "hazard in simulation paths; use an ordered "
                              "container or suppress with justification"});
    }
  }
}

// iostream-in-header: no <iostream> in core library headers.
void rule_iostream_in_header(const FileContext& ctx,
                             std::vector<Finding>& findings) {
  if (!ctx.is_header) return;
  for (const Directive& d : ctx.lexed->directives) {
    if (d.words.size() >= 3 && d.words[1] == "include" &&
        d.words[2] == "<iostream>") {
      findings.push_back({"iostream-in-header", d.line,
                          "<iostream> in a core header drags global stream "
                          "objects into every TU; use <ostream> or <iosfwd>"});
    }
  }
}

// threading-header: raw threading primitives stay confined to the files
// that implement or drive the shared ThreadPool.  A scoped allowlist, not a
// directory exclusion: a new file wanting <thread> must either route its
// parallelism through Engine::set_threads / SchedulerOptions or be added
// here with a reason.
void rule_threading_header(const FileContext& ctx,
                           std::vector<Finding>& findings) {
  static constexpr const char* kAllowedSuffixes[] = {
      // the pool itself
      "src/noisypull/common/thread_pool.hpp",
      "src/noisypull/common/thread_pool.cpp",
      // experiment scheduler: drives the pool; queue state under one mutex,
      // plus the watchdog thread cancelling overdue repetitions
      "src/noisypull/analysis/scheduler.cpp",
      // crash-safe I/O seam: atomic tmp-name counter and backoff sleeps
      "src/noisypull/common/atomic_io.cpp",
      // cooperative cancellation token (one relaxed atomic<bool>)
      "src/noisypull/common/cancel.hpp",
      // relaxed fault-stat accumulators read under block parallelism
      "src/noisypull/fault/faulty_engine.hpp",
      // lazy interning of SSF mirror states from the engines'
      // block-parallel update phase (one mutex around lookup+insert)
      "src/noisypull/core/automaton/protocol_automata.hpp",
      // reports hardware_concurrency next to its measurements
      "bench/perf_round_kernel.cpp",
      "bench/perf_sweep_scheduler.cpp",
      "bench/perf_lumped_engine.cpp",
      "bench/perf_compiled_path.cpp",
  };
  for (const char* suffix : kAllowedSuffixes) {
    if (ctx.path.ends_with(suffix)) return;
  }
  static const std::set<std::string> kThreadingHeaders = {
      "<thread>", "<atomic>", "<mutex>", "<condition_variable>"};
  for (const Directive& d : ctx.lexed->directives) {
    if (d.words.size() >= 3 && d.words[1] == "include" &&
        kThreadingHeaders.count(d.words[2]) != 0) {
      findings.push_back(
          {"threading-header", d.line,
           d.words[2] +
               " outside the thread-pool allowlist; route parallelism "
               "through Engine::set_threads / the shared ThreadPool"});
    }
  }
}

// raw-file-io: durable writes bypassing the crash-safe seam.  Everything
// the harness persists must go through common/atomic_io (tmp+rename
// publish, bounded retry, quarantine, fault injection); a raw std::ofstream
// or rename() elsewhere reopens the torn-write window the chaos tests
// close.  fopen-based perf loggers are out of scope: the rule targets the
// artifact writers (cache, manifest, CSV/JSON emitters).
void rule_raw_file_io(const FileContext& ctx, std::vector<Finding>& findings) {
  static constexpr const char* kAllowedSuffixes[] = {
      // the seam itself
      "src/noisypull/common/atomic_io.hpp",
      "src/noisypull/common/atomic_io.cpp",
  };
  for (const char* suffix : kAllowedSuffixes) {
    if (ctx.path.ends_with(suffix)) return;
  }
  const auto& toks = ctx.lexed->tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Identifier) continue;
    if (t.text == "ofstream") {
      findings.push_back({"raw-file-io", t.line,
                          "std::ofstream outside common/atomic_io; durable "
                          "writes must use io::atomic_write_file / "
                          "io::append_line for crash safety"});
      continue;
    }
    if (t.text == "rename" && next_is(toks, i, "(") &&
        !is_member_access(toks, i)) {
      findings.push_back({"raw-file-io", t.line,
                          "rename() outside common/atomic_io; atomic "
                          "publishes must go through io::atomic_write_file"});
    }
  }
}

// substream-discipline: every Rng seed / stream id must be a named constant
// or a derived expression (seed ^ kSalt, 2 * rep + 1, round_key), never a
// bare integer literal.  Literal seeds fork an untracked stream: they
// collide silently with the counter-substream plan that makes replay,
// lane-count invariance, and cache keys sound.  rng/ itself (the derivation
// seam) and test/example code are out of scope.
bool is_integer_literal(const std::string& text) {
  if (text.find('.') != std::string::npos) return false;
  if (text.compare(0, 2, "0x") == 0 || text.compare(0, 2, "0X") == 0) {
    return true;
  }
  return text.find('e') == std::string::npos &&
         text.find('E') == std::string::npos;
}

void rule_substream_discipline(const FileContext& ctx,
                               std::vector<Finding>& findings) {
  if (path_contains(ctx, "src/noisypull/rng/")) return;
  const auto& toks = ctx.lexed->tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Identifier || toks[i].text != "Rng" ||
        is_member_access(toks, i)) {
      continue;
    }
    std::size_t j = i + 1;  // optional variable name, then '(' or '{'
    if (j < toks.size() && toks[j].kind == TokKind::Identifier) ++j;
    if (j >= toks.size() || (toks[j].text != "(" && toks[j].text != "{")) {
      continue;
    }
    // Argument scan: split the top-level comma-separated arguments and flag
    // any argument that is exactly one integer-literal token.
    int depth = 1;
    std::size_t arg_tokens = 0;
    const Token* lone = nullptr;
    for (std::size_t k = j + 1; k < toks.size() && depth > 0; ++k) {
      const std::string& s = toks[k].text;
      if (s == "(" || s == "{") {
        ++depth;
      } else if (s == ")" || s == "}") {
        --depth;
      }
      const bool arg_end = (depth == 0) || (depth == 1 && s == ",");
      if (!arg_end) {
        ++arg_tokens;
        lone = arg_tokens == 1 ? &toks[k] : nullptr;
        continue;
      }
      if (arg_tokens == 1 && lone != nullptr &&
          lone->kind == TokKind::Number && is_integer_literal(lone->text)) {
        findings.push_back(
            {"substream-discipline", lone->line,
             "bare integer literal " + lone->text +
                 " seeds an Rng; use a named seed/salt constant or a "
                 "derived substream expression (see rng/rng.hpp)"});
      }
      arg_tokens = 0;
      lone = nullptr;
    }
  }
}

// allow-without-reason: every suppression carries its justification inline.
void rule_allow_without_reason(const FileContext& ctx,
                               std::vector<Finding>& findings) {
  for (const auto& [line, has_reason] : ctx.ann->allow_has_reason) {
    if (!has_reason) {
      findings.push_back({"allow-without-reason", line,
                          "suppression without justification; write "
                          "`nplint: allow(rule) -- why`"});
    }
  }
}

using RuleFn = void (*)(const FileContext&, std::vector<Finding>&);

struct Rule {
  const char* name;
  unsigned scope;  // ScopeBits the rule opts into (fn == nullptr: tree rule)
  RuleFn fn;
  const char* summary;  // one-line description for SARIF rule metadata
};

constexpr Rule kRules[] = {
    {"nondeterministic-rng", kScopeAll, rule_nondeterministic_rng,
     "Unseeded or wall-clock randomness outside src/noisypull/rng/"},
    {"float-type", kScopeAll, rule_float_type,
     "Single-precision type or literal on a double-only probability path"},
    {"pragma-once", kScopeAll, rule_pragma_once,
     "Header does not open with #pragma once"},
    {"bare-assert", kScopeAll, rule_bare_assert,
     "Bare assert() or <cassert>; use NOISYPULL_ASSERT / NOISYPULL_CHECK"},
    {"unordered-container", kScopeSrc | kScopeBench, rule_unordered_container,
     "Hash-ordered container on a deterministic simulation path"},
    {"iostream-in-header", kScopeSrc, rule_iostream_in_header,
     "<iostream> included from a core library header"},
    {"threading-header", kScopeSrc | kScopeBench, rule_threading_header,
     "Threading primitive outside the ThreadPool allowlist"},
    {"raw-file-io", kScopeSrc | kScopeBench, rule_raw_file_io,
     "Durable write bypassing the crash-safe common/atomic_io seam"},
    {"substream-discipline", kScopeSrc | kScopeBench | kScopeTools,
     rule_substream_discipline,
     "Rng seeded with a bare integer literal outside rng/"},
    {"allow-without-reason", kScopeAll, rule_allow_without_reason,
     "nplint: allow(...) suppression without a ` -- why` justification"},
    {"layering", kScopeSrc, nullptr,
     "Include edge violating the declared layer DAG (cycle, upward include, "
     "umbrella include, or undeclared module directory)"},
};

// ---------------------------------------------------------------------------
// Tree rule: include-graph layering over src/noisypull/

// The declared layer DAG.  An include edge is legal iff the target layer is
// <= the source layer; the umbrella header noisypull/noisypull.hpp sits
// above everything (external consumers only).
struct LayerDir {
  const char* dir;
  int layer;
};

// sim sits above theory because the lumped engine (sim/lumped_engine.hpp)
// drives the theory/ automaton mirrors; analysis sits above sim because the
// scheduler dispatches lumped cells.  theory itself only reaches layer 0:
// it consumes the hoisted automaton vocabulary in core/automaton (which the
// compiled engine fast path shares) without ever touching model/.  Nested
// module directories are declared with their full path and resolved by
// longest prefix, so "core/automaton" gets its own row instead of silently
// inheriting "core".
constexpr LayerDir kLayerDag[] = {
    {"common", 0}, {"core", 0},  {"core/automaton", 0}, {"linalg", 0},
    {"rng", 0},    {"model", 1}, {"noise", 1},          {"baselines", 2},
    {"fault", 2},  {"push", 2},  {"theory", 2},         {"sim", 3},
    {"analysis", 4},
};

constexpr int kUmbrellaLayer = 100;

// Longest-prefix resolution on '/' boundaries: "core/automaton" matches its
// own row, a hypothetical "core/automaton/detail" falls back to
// "core/automaton", and an undeclared sibling like "core2" matches nothing.
int layer_of_dir(const std::string& dir) {
  if (dir.empty()) return kUmbrellaLayer;  // root-level umbrella header
  int best_layer = -1;
  std::size_t best_len = 0;
  for (const LayerDir& d : kLayerDag) {
    const std::string_view prefix = d.dir;
    if (prefix.size() < best_len) continue;
    if (!dir.starts_with(prefix)) continue;
    if (dir.size() > prefix.size() && dir[prefix.size()] != '/') continue;
    best_layer = d.layer;
    best_len = prefix.size();
  }
  return best_layer;
}

// Module key of a file under src/noisypull/: the "noisypull/..." suffix that
// include directives use, so edges resolve by string equality.  Empty for
// files outside the library.
std::string module_key(const std::string& eff_path) {
  const auto pos = eff_path.find("src/noisypull/");
  if (pos == std::string::npos) return "";
  return eff_path.substr(pos + 4);  // keep "noisypull/..."
}

// Module directory of a key: the full directory path under noisypull/, so
// nested modules keep their identity — "noisypull/core/ssf.hpp" → "core",
// "noisypull/core/automaton/automaton.hpp" → "core/automaton"; "" for
// root-level files (the umbrella).  layer_of_dir resolves it against the
// DAG by longest declared prefix.
std::string module_dir(const std::string& key) {
  const auto slash1 = key.find('/');
  if (slash1 == std::string::npos) return "";
  const auto last = key.rfind('/');
  if (last == slash1) return "";
  return key.substr(slash1 + 1, last - slash1 - 1);
}

struct IncludeEdge {
  std::string target;  // "noisypull/..." include argument
  int line = 0;
};

// Internal includes of a lexed file: `#include "noisypull/..."` (or <...>).
std::vector<IncludeEdge> internal_includes(const LexedFile& lexed) {
  std::vector<IncludeEdge> edges;
  for (const Directive& d : lexed.directives) {
    if (d.words.size() < 3 || d.words[1] != "include") continue;
    std::string arg = d.words[2];
    if (arg.size() >= 2 && (arg.front() == '"' || arg.front() == '<')) {
      arg = arg.substr(1, arg.size() - 2);
    }
    if (arg.compare(0, 10, "noisypull/") == 0) {
      edges.push_back({arg, d.line});
    }
  }
  return edges;
}

// ---------------------------------------------------------------------------
// Driver

struct SourceFile {
  fs::path real_path;
  std::string display;   // real path, '/'-separated, for reporting
  std::string eff_path;  // lint-path override if present, else display
  std::string key;       // module key ("" outside src/noisypull/)
  unsigned scope = 0;
  LexedFile lexed;
  Annotations ann;
  std::vector<Finding> raw;       // before suppression
  std::vector<Finding> findings;  // after suppression
};

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool load_source_file(const fs::path& p, SourceFile& f) {
  std::string src;
  if (!read_file(p, src)) return false;
  f.real_path = p;
  f.display = p.generic_string();
  f.lexed = lex(src);
  f.ann = parse_annotations(f.lexed);
  f.eff_path = f.ann.lint_path.empty() ? f.display : f.ann.lint_path;
  f.key = module_key(f.eff_path);
  f.scope = classify_scope(f.eff_path);
  return true;
}

void run_file_rules(SourceFile& f) {
  FileContext ctx;
  ctx.path = f.eff_path;
  ctx.is_header = fs::path(f.eff_path).extension() == ".hpp";
  ctx.lexed = &f.lexed;
  ctx.ann = &f.ann;
  for (const Rule& rule : kRules) {
    if (rule.fn == nullptr) continue;
    if ((rule.scope & f.scope) == 0) continue;
    rule.fn(ctx, f.raw);
  }
}

// Tarjan strongly-connected components over the resolved include graph;
// any edge staying inside a non-trivial SCC (or a self-include) is part of
// a cycle and fires on the include directive that forms it.
struct SccState {
  std::vector<int> index, lowlink, scc;
  std::vector<bool> on_stack;
  std::vector<std::size_t> stack;
  int next_index = 0;
  int next_scc = 0;
};

void tarjan(std::size_t v, const std::vector<std::vector<std::size_t>>& adj,
            SccState& st) {
  st.index[v] = st.lowlink[v] = st.next_index++;
  st.stack.push_back(v);
  st.on_stack[v] = true;
  for (std::size_t w : adj[v]) {
    if (st.index[w] < 0) {
      tarjan(w, adj, st);
      st.lowlink[v] = std::min(st.lowlink[v], st.lowlink[w]);
    } else if (st.on_stack[w]) {
      st.lowlink[v] = std::min(st.lowlink[v], st.index[w]);
    }
  }
  if (st.lowlink[v] == st.index[v]) {
    while (true) {
      const std::size_t w = st.stack.back();
      st.stack.pop_back();
      st.on_stack[w] = false;
      st.scc[w] = st.next_scc;
      if (w == v) break;
    }
    ++st.next_scc;
  }
}

// The layering pass: runs once over all files being linted together, so
// both halves of an include cycle are visible in the same graph.
void run_layering(std::vector<SourceFile>& files) {
  std::map<std::string, std::size_t> node;  // module key → file index
  std::vector<std::size_t> members;         // indices with non-empty key
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!files[i].key.empty()) {
      node[files[i].key] = i;
      members.push_back(i);
    }
  }

  // Per-edge layer checks + resolved adjacency for cycle detection.
  std::vector<std::vector<std::size_t>> adj(files.size());
  std::vector<std::vector<std::pair<std::size_t, int>>> edge_lines(
      files.size());  // parallel to adj: (target index, include line)
  for (const std::size_t i : members) {
    SourceFile& f = files[i];
    const std::string sdir = module_dir(f.key);
    const int slayer = layer_of_dir(sdir);
    if (slayer < 0) {
      f.raw.push_back(
          {"layering", 1,
           "module directory '" + sdir +
               "' is not declared in the layer DAG (tools/noisypull_lint.cpp "
               "kLayerDag); new src/noisypull/ directories must be placed in "
               "a layer"});
    }
    for (const IncludeEdge& e : internal_includes(f.lexed)) {
      const std::string tdir = module_dir(e.target);
      const int tlayer = layer_of_dir(tdir);
      if (tlayer == kUmbrellaLayer) {
        f.raw.push_back(
            {"layering", e.line,
             "include of the umbrella header " + e.target +
                 " from inside the library; include the specific headers "
                 "needed (the umbrella is for external consumers)"});
      } else if (tlayer < 0) {
        f.raw.push_back(
            {"layering", e.line,
             "include of undeclared module directory '" + tdir + "' (" +
                 e.target + "); declare it in the layer DAG first"});
      } else if (slayer >= 0 && slayer != kUmbrellaLayer && tlayer > slayer) {
        f.raw.push_back(
            {"layering", e.line,
             "upward include: " + sdir + " (layer " + std::to_string(slayer) +
                 ") may not include " + tdir + " (layer " +
                 std::to_string(tlayer) +
                 "); the DAG is common/core(/automaton)/linalg/rng <- "
                 "model/noise <- baselines/fault/push/theory <- sim <- "
                 "analysis"});
      }
      if (const auto it = node.find(e.target); it != node.end()) {
        adj[i].push_back(it->second);
        edge_lines[i].push_back({it->second, e.line});
      }
    }
  }

  SccState st;
  st.index.assign(files.size(), -1);
  st.lowlink.assign(files.size(), -1);
  st.scc.assign(files.size(), -1);
  st.on_stack.assign(files.size(), false);
  for (const std::size_t i : members) {
    if (st.index[i] < 0) tarjan(i, adj, st);
  }
  std::vector<std::size_t> scc_size(static_cast<std::size_t>(st.next_scc), 0);
  for (const std::size_t i : members) {
    ++scc_size[static_cast<std::size_t>(st.scc[i])];
  }
  for (const std::size_t i : members) {
    for (const auto& [j, line] : edge_lines[i]) {
      const bool in_cycle =
          st.scc[i] == st.scc[j] &&
          (i == j || scc_size[static_cast<std::size_t>(st.scc[i])] > 1);
      if (in_cycle) {
        files[i].raw.push_back(
            {"layering", line,
             "include cycle: " + files[i].key + " -> " + files[j].key +
                 " closes a cycle in the include graph"});
      }
    }
  }
}

// Applies `nplint: allow` suppressions and orders the surviving findings.
void finalize_findings(SourceFile& f) {
  for (Finding& x : f.raw) {
    const auto it = f.ann.allow.find(x.line);
    if (it != f.ann.allow.end() && it->second.count(x.rule) != 0) continue;
    f.findings.push_back(std::move(x));
  }
  std::sort(f.findings.begin(), f.findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
}

// Full pipeline over one batch of files (one include graph).
void analyze(std::vector<SourceFile>& files) {
  for (SourceFile& f : files) run_file_rules(f);
  run_layering(files);
  for (SourceFile& f : files) finalize_findings(f);
}

bool should_skip(const fs::path& p) {
  const std::string s = p.generic_string();
  return s.find("lint_fixtures") != std::string::npos ||
         s.find("/build") != std::string::npos;
}

std::vector<fs::path> collect_files(const std::vector<std::string>& roots,
                                    bool include_fixtures) {
  std::vector<fs::path> files;
  for (const std::string& root : roots) {
    // A root that explicitly targets fixtures opts them in (the negative
    // layering ctest lints tests/lint_fixtures/tree_bad as a real tree).
    const bool fixtures_ok =
        include_fixtures || root.find("lint_fixtures") != std::string::npos;
    const fs::path rp(root);
    if (fs::is_regular_file(rp)) {
      files.push_back(rp);
      continue;
    }
    if (!fs::is_directory(rp)) {
      std::fprintf(stderr, "noisypull_lint: no such path: %s\n", root.c_str());
      std::exit(2);
    }
    for (const auto& entry : fs::recursive_directory_iterator(rp)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      const auto ext = p.extension();
      if (ext != ".cpp" && ext != ".hpp") continue;
      if (!fixtures_ok && should_skip(p)) continue;
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

// ---------------------------------------------------------------------------
// Output formats

enum class Format { Text, Json, Sarif };

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void emit_text(const std::vector<SourceFile>& files, std::size_t total) {
  for (const SourceFile& f : files) {
    for (const Finding& x : f.findings) {
      std::printf("%s:%d: [%s] %s\n", f.display.c_str(), x.line,
                  x.rule.c_str(), x.message.c_str());
    }
  }
  if (total != 0) std::printf("noisypull_lint: %zu finding(s)\n", total);
}

void emit_json(const std::vector<SourceFile>& files, std::size_t total) {
  std::printf("{\n  \"findings\": [");
  bool first = true;
  for (const SourceFile& f : files) {
    for (const Finding& x : f.findings) {
      std::printf("%s\n    {\"path\": \"%s\", \"line\": %d, "
                  "\"rule\": \"%s\", \"message\": \"%s\"}",
                  first ? "" : ",", json_escape(f.display).c_str(), x.line,
                  json_escape(x.rule).c_str(),
                  json_escape(x.message).c_str());
      first = false;
    }
  }
  std::printf("%s],\n  \"count\": %zu\n}\n", first ? "" : "\n  ", total);
}

void emit_sarif(const std::vector<SourceFile>& files) {
  std::printf(
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"noisypull_lint\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/noisypull/DESIGN.md\",\n"
      "          \"rules\": [");
  bool first = true;
  for (const Rule& r : kRules) {
    std::printf("%s\n            {\"id\": \"%s\", \"shortDescription\": "
                "{\"text\": \"%s\"}}",
                first ? "" : ",", r.name, json_escape(r.summary).c_str());
    first = false;
  }
  std::printf(
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [");
  first = true;
  for (const SourceFile& f : files) {
    for (const Finding& x : f.findings) {
      std::printf(
          "%s\n        {\n"
          "          \"ruleId\": \"%s\",\n"
          "          \"level\": \"error\",\n"
          "          \"message\": {\"text\": \"%s\"},\n"
          "          \"locations\": [\n"
          "            {\n"
          "              \"physicalLocation\": {\n"
          "                \"artifactLocation\": {\"uri\": \"%s\"},\n"
          "                \"region\": {\"startLine\": %d}\n"
          "              }\n"
          "            }\n"
          "          ]\n"
          "        }",
          first ? "" : ",", json_escape(x.rule).c_str(),
          json_escape(x.message).c_str(), json_escape(f.display).c_str(),
          x.line);
      first = false;
    }
  }
  std::printf("%s]\n    }\n  ]\n}\n", first ? "" : "\n      ");
}

int run_lint(const std::vector<std::string>& roots, Format format) {
  std::vector<SourceFile> files;
  for (const fs::path& p : collect_files(roots, /*include_fixtures=*/false)) {
    SourceFile f;
    if (!load_source_file(p, f)) {
      std::fprintf(stderr, "noisypull_lint: cannot read %s\n",
                   p.generic_string().c_str());
      return 2;
    }
    files.push_back(std::move(f));
  }
  analyze(files);
  std::size_t total = 0;
  for (const SourceFile& f : files) total += f.findings.size();
  switch (format) {
    case Format::Text:
      emit_text(files, total);
      break;
    case Format::Json:
      emit_json(files, total);
      break;
    case Format::Sarif:
      emit_sarif(files);
      break;
  }
  return total != 0 ? 1 : 0;
}

// Self-test: every `expect:` annotation must produce exactly that finding on
// that line, every `expect-anywhere:` at least once per file, and nothing
// unexpected may fire.  Clean fixtures simply carry no annotations.  Files
// in the same fixture directory are analyzed as one include graph so tree
// rules (layering cycles) can be exercised across files.
int run_self_test(const std::vector<std::string>& roots) {
  // Group fixture files by their parent directory: each group is one tree.
  std::map<std::string, std::vector<fs::path>> groups;
  for (const fs::path& p : collect_files(roots, /*include_fixtures=*/true)) {
    groups[p.parent_path().generic_string()].push_back(p);
  }

  std::size_t errors = 0;
  std::size_t file_count = 0;
  std::set<std::string> rules_exercised;
  for (auto& [dir, paths] : groups) {
    std::vector<SourceFile> files;
    for (const fs::path& p : paths) {
      SourceFile f;
      if (!load_source_file(p, f)) {
        std::fprintf(stderr, "noisypull_lint: cannot read %s\n",
                     p.generic_string().c_str());
        return 2;
      }
      files.push_back(std::move(f));
    }
    analyze(files);
    for (const SourceFile& f : files) {
      ++file_count;
      const std::string& name = f.display;
      const Annotations& a = f.ann;

      // An expectation is satisfied by one or more findings of that rule (on
      // that line for `expect:`, anywhere for `expect-anywhere:`); findings
      // matching no expectation, and expectations matching no finding, fail.
      std::set<std::pair<int, std::string>> matched;
      std::set<std::string> matched_anywhere;
      for (const Finding& x : f.findings) {
        rules_exercised.insert(x.rule);
        if (auto it = a.expect.find(x.line);
            it != a.expect.end() && it->second.count(x.rule) != 0) {
          matched.insert({x.line, x.rule});
          continue;
        }
        if (a.expect_anywhere.count(x.rule) != 0) {
          matched_anywhere.insert(x.rule);
          continue;
        }
        std::printf("self-test: %s:%d: unexpected finding [%s] %s\n",
                    name.c_str(), x.line, x.rule.c_str(), x.message.c_str());
        ++errors;
      }
      for (const auto& [line, rules] : a.expect) {
        for (const std::string& rule : rules) {
          if (matched.count({line, rule}) == 0) {
            std::printf("self-test: %s:%d: expected [%s] did not fire\n",
                        name.c_str(), line, rule.c_str());
            ++errors;
          }
        }
      }
      for (const std::string& rule : a.expect_anywhere) {
        if (matched_anywhere.count(rule) == 0) {
          std::printf("self-test: %s: expected [%s] somewhere; did not fire\n",
                      name.c_str(), rule.c_str());
          ++errors;
        }
      }
    }
  }
  if (file_count == 0) {
    std::fprintf(stderr, "noisypull_lint: self-test found no fixtures\n");
    return 2;
  }
  // Every rule in the table must be exercised by at least one bad fixture —
  // a rule nobody can trip is a rule that silently rotted.
  for (const Rule& rule : kRules) {
    if (rules_exercised.count(rule.name) == 0) {
      std::printf("self-test: rule [%s] has no firing fixture\n", rule.name);
      ++errors;
    }
  }
  std::printf("noisypull_lint self-test: %zu fixture file(s), %zu error(s)\n",
              file_count, errors);
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  bool self_test = false;
  Format format = Format::Text;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      self_test = true;
    } else if (a.rfind("--format=", 0) == 0) {
      const std::string v = a.substr(9);
      if (v == "text") {
        format = Format::Text;
      } else if (v == "json") {
        format = Format::Json;
      } else if (v == "sarif") {
        format = Format::Sarif;
      } else {
        std::fprintf(stderr, "noisypull_lint: unknown format '%s'\n",
                     v.c_str());
        return 2;
      }
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: noisypull_lint [--format=text|json|sarif] "
          "[--self-test] <file-or-dir>...\n"
          "lints the noisypull tree for determinism and layering\n"
          "invariants; exits 1 on findings, 2 on usage/IO errors.\n");
      return 0;
    } else {
      roots.push_back(a);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "noisypull_lint: no paths given (try --help)\n");
    return 2;
  }
  return self_test ? run_self_test(roots) : run_lint(roots, format);
}
