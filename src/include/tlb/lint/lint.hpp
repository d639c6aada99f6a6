#pragma once
// tlb::lint — the repo's determinism-discipline linter.
//
// The library's core contract — bitwise-identical results at any
// --engine-threads, deterministic vs timing metric segregation,
// additive-only JSON blocks — rests on source-level rules that runtime
// differential tests can only verify after the fact. This pass enforces
// them at the token level, before a violation ever reaches a test:
//
//   D1  no raw randomness: every stochastic draw goes through util::Rng /
//       util::binomial (std::rand, std::random_device, mt19937 and the
//       <random> distributions are banned outside those two files).
//   D2  no wall-clock reads (std::chrono, clock_gettime, ...) in library
//       code outside the timing-class whitelist (util/timer, obs/ span and
//       trace code, util/thread_pool).
//   D3  no std::unordered_map/set in the deterministic subsystems
//       (src/core, src/engine, src/tasks, src/mem, src/util) — iteration
//       order is implementation-defined and can leak into results.
//   D4  no std::cout/cerr/printf in library code (src/); only apps/,
//       bench/ and tests/ talk to stdio directly. snprintf-style string
//       formatting is fine — the rule bans *streams*, not formatting.
//   D5  every obs::Registry registration (.counter/.histogram)
//       names an explicit determinism class (kDeterministic / kTiming).
//   D6  thread_local only in the whitelisted per-thread shard caches
//       (obs registry / trace buffers).
//   D7  no std::hash in the deterministic subsystems — its output is
//       implementation-defined (and for pointers depends on the allocation
//       addresses of the run), so any value derived from it can leak
//       run-to-run noise into results or fingerprints; digest with
//       dsan::Digest (FNV-1a over explicit bytes) instead.
//
// Suppressions are explicit and carry a justification in the source:
//
//   // tlb-lint: allow(D3): <why this use cannot leak into results>
//       suppresses D3 on this line and the next code line (blank and
//       comment-continuation lines in between are skipped).
//   // tlb-lint: allow-file(D4): <why>
//       suppresses D4 for the whole file.
//   // tlb-lint: path(src/core/planted.cpp)
//       lint this file *as if* it lived at the given repo-relative path
//       (used by the committed violation fixtures under tests/).
//
// The lexer is the same strict, offset-tracking style as util::json_parse:
// comments, string/char literals and raw strings are recognised exactly,
// so a banned identifier inside a string or comment never fires.

#include <cstddef>
#include <string>
#include <vector>

namespace tlb::lint {

/// The rule classes, in severity-neutral declaration order.
enum class Rule { kD1, kD2, kD3, kD4, kD5, kD6, kD7 };

/// Number of distinct rules (for tables indexed by rule).
inline constexpr std::size_t kRuleCount = 7;

/// "D1".."D7".
[[nodiscard]] const char* rule_name(Rule rule) noexcept;

/// One-line human summary of what the rule forbids.
[[nodiscard]] const char* rule_summary(Rule rule) noexcept;

/// One finding: `file` is the path the caller handed in (or the
/// `tlb-lint: path(...)` override for fixtures), `line` is 1-based.
struct Diagnostic {
  std::string file;
  std::size_t line = 0;
  Rule rule = Rule::kD1;
  std::string message;

  /// "file:line: Dx: message" — the diagnostic as the CLI prints it.
  [[nodiscard]] std::string render() const;
};

/// Lint one in-memory source. `relpath` must be repo-relative with forward
/// slashes ("src/core/dynamic.cpp"); it decides which rules apply where.
[[nodiscard]] std::vector<Diagnostic> lint_source(const std::string& relpath,
                                                  const std::string& text);

/// Lint one on-disk file (throws std::runtime_error when unreadable).
/// `relpath` is the path used for rule scoping and diagnostics.
[[nodiscard]] std::vector<Diagnostic> lint_file(const std::string& path,
                                                const std::string& relpath);

/// Recursively lint every *.cpp/*.hpp/*.h under `root`/<dir> for each of
/// `dirs` (repo-relative). Files are visited in sorted path order so the
/// diagnostic stream is deterministic. `files_scanned`, when non-null,
/// receives the repo-relative paths visited.
[[nodiscard]] std::vector<Diagnostic> lint_tree(
    const std::string& root, const std::vector<std::string>& dirs,
    std::vector<std::string>* files_scanned = nullptr);

/// The default scan set for the repo: src, apps, bench.
[[nodiscard]] const std::vector<std::string>& default_scan_dirs();

}  // namespace tlb::lint
