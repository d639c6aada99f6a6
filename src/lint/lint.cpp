#include "tlb/lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
// tlb-lint: allow(D3): the keyword tables are lookup-only; no iteration
// order reaches any diagnostic.
#include <unordered_map>
// tlb-lint: allow(D3): membership tests only — same justification.
#include <unordered_set>

namespace tlb::lint {
namespace {

// ---------------------------------------------------------------------------
// Path classification. All rule scoping is decided here, from the
// repo-relative path, so the rules themselves stay pure token matchers.

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Directories whose iteration-order / randomness / clock discipline is
/// load-bearing for bitwise determinism (D3/D7 scope). src/util is included
/// because every engine builds on it; src/dsan because fingerprints must be
/// as stable as the state they digest; src/obs is timing-class by design
/// and src/randomwalk, src/sim, src/workload render through sorted
/// structures already audited by the byte-determinism CI diffs.
constexpr std::array<std::string_view, 12> kDetDirs = {
    "src/core/",         "src/engine/",         "src/tasks/",
    "src/mem/",          "src/util/",           "src/dsan/",
    "src/include/tlb/core/",   "src/include/tlb/engine/",
    "src/include/tlb/tasks/",  "src/include/tlb/mem/",
    "src/include/tlb/util/",   "src/include/tlb/dsan/"};

/// D1: the only two components allowed to own raw randomness machinery.
constexpr std::array<std::string_view, 4> kRngFiles = {
    "src/include/tlb/util/rng.hpp", "src/util/rng.cpp",
    "src/include/tlb/util/binomial.hpp", "src/util/binomial.cpp"};

/// D2: the timing-class whitelist — the stopwatch itself, the thread pool's
/// busy/idle probes, and the obs span/trace code. Everything else must take
/// timings through these, never read a clock directly.
constexpr std::array<std::string_view, 4> kTimingFiles = {
    "src/include/tlb/util/timer.hpp", "src/util/timer.cpp",
    "src/include/tlb/util/thread_pool.hpp", "src/util/thread_pool.cpp"};

/// D6: the per-thread shard caches — the two deliberate thread_local sites.
constexpr std::array<std::string_view, 2> kThreadLocalFiles = {
    "src/obs/registry.cpp", "src/obs/trace_event.cpp"};

struct FileScope {
  bool library = false;        ///< src/ — D4 applies
  bool det_subsystem = false;  ///< kDetDirs — D3 applies
  bool rng_whitelist = false;  ///< D1 exempt
  bool timing_whitelist = false;  ///< D2 exempt
  bool thread_local_whitelist = false;  ///< D6 exempt
};

[[nodiscard]] FileScope classify(std::string_view relpath) {
  FileScope scope;
  scope.library = starts_with(relpath, "src/");
  for (const auto dir : kDetDirs) {
    if (starts_with(relpath, dir)) scope.det_subsystem = true;
  }
  for (const auto f : kRngFiles) {
    if (relpath == f) scope.rng_whitelist = true;
  }
  for (const auto f : kTimingFiles) {
    if (relpath == f) scope.timing_whitelist = true;
  }
  if (starts_with(relpath, "src/obs/") ||
      starts_with(relpath, "src/include/tlb/obs/")) {
    scope.timing_whitelist = true;
  }
  for (const auto f : kThreadLocalFiles) {
    if (relpath == f) scope.thread_local_whitelist = true;
  }
  return scope;
}

// ---------------------------------------------------------------------------
// Lexer. Strict enough that banned identifiers inside comments, string
// literals (incl. raw strings), char literals and digit separators never
// fire; loose enough to not need a real preprocessor.

struct Token {
  enum class Kind { kIdent, kPunct, kHeader };
  Kind kind;
  std::string text;
  std::size_t line;
};

struct Directive {
  enum class Kind { kAllowLine, kAllowFile, kPath };
  Kind kind;
  Rule rule = Rule::kD1;  // allow directives
  std::string path;       // path directive
  std::size_t line = 0;
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Directive> directives;
  std::vector<Diagnostic> errors;  ///< malformed tlb-lint directives
};

[[nodiscard]] bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
[[nodiscard]] bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parse "D1".."D<kRuleCount>" → Rule.
[[nodiscard]] bool parse_rule(std::string_view name, Rule* out) {
  if (name.size() != 2 || name[0] != 'D' || name[1] < '1' ||
      name[1] >= static_cast<char>('1' + kRuleCount)) {
    return false;
  }
  *out = static_cast<Rule>(name[1] - '1');
  return true;
}

/// Recognise tlb-lint directives inside one comment's text.
void parse_directives(std::string_view comment, std::size_t line,
                      const std::string& file, LexResult* out) {
  const std::string_view kTag = "tlb-lint:";
  const std::size_t tag = comment.find(kTag);
  if (tag == std::string_view::npos) return;
  std::string_view rest = comment.substr(tag + kTag.size());
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);

  const auto malformed = [&](const std::string& why) {
    out->errors.push_back(
        {file, line, Rule::kD1,
         "malformed tlb-lint directive (" + why + "): '" +
             std::string(comment.substr(tag)) + "'"});
  };

  for (const std::string_view verb : {"allow-file", "allow", "path"}) {
    if (!starts_with(rest, verb) ||
        rest.substr(verb.size()).empty() ||
        rest.substr(verb.size()).front() != '(') {
      continue;
    }
    std::string_view args = rest.substr(verb.size() + 1);
    const std::size_t close = args.find(')');
    if (close == std::string_view::npos) {
      malformed("missing ')'");
      return;
    }
    args = args.substr(0, close);
    Directive d;
    d.line = line;
    if (verb == "path") {
      if (args.empty()) {
        malformed("empty path");
        return;
      }
      d.kind = Directive::Kind::kPath;
      d.path = std::string(args);
    } else {
      if (!parse_rule(args, &d.rule)) {
        malformed("unknown rule '" + std::string(args) + "'");
        return;
      }
      d.kind = verb == "allow" ? Directive::Kind::kAllowLine
                               : Directive::Kind::kAllowFile;
    }
    out->directives.push_back(std::move(d));
    return;
  }
  malformed("unknown verb");
}

[[nodiscard]] LexResult lex(const std::string& file, const std::string& text) {
  LexResult out;
  const std::size_t n = text.size();
  std::size_t i = 0;
  std::size_t line = 1;
  bool line_start = true;  // only whitespace seen since the last newline

  const auto peek = [&](std::size_t k) -> char {
    return i + k < n ? text[i + k] : '\0';
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }

    // Line comment (directives live here).
    if (c == '/' && peek(1) == '/') {
      std::size_t end = i;
      while (end < n && text[end] != '\n') ++end;
      parse_directives(std::string_view(text).substr(i, end - i), line, file,
                       &out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      const std::size_t start_line = line;
      std::size_t end = i + 2;
      while (end + 1 < n && !(text[end] == '*' && text[end + 1] == '/')) {
        if (text[end] == '\n') ++line;
        ++end;
      }
      parse_directives(std::string_view(text).substr(i, end - i), start_line,
                       file, &out);
      i = end + (end + 1 < n ? 2 : 1);
      line_start = false;
      continue;
    }

    // Preprocessor #include <header> → one header token. Other directives
    // fall through to ordinary tokenization.
    if (c == '#' && line_start) {
      std::size_t j = i + 1;
      while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
      if (text.compare(j, 7, "include") == 0) {
        j += 7;
        while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
        if (j < n && text[j] == '<') {
          const std::size_t close = text.find('>', j + 1);
          if (close != std::string::npos &&
              text.find('\n', j) > close) {
            out.tokens.push_back({Token::Kind::kHeader,
                                  text.substr(j + 1, close - j - 1), line});
            i = close + 1;
            line_start = false;
            continue;
          }
        }
      }
      ++i;
      line_start = false;
      continue;
    }

    line_start = false;

    // Identifier — possibly a raw-string prefix.
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(text[j])) ++j;
      std::string word = text.substr(i, j - i);
      // Raw string literal: R"delim( ... )delim"
      if (j < n && text[j] == '"' &&
          (word == "R" || word == "u8R" || word == "uR" || word == "UR" ||
           word == "LR")) {
        std::size_t k = j + 1;
        std::string delim;
        while (k < n && text[k] != '(') delim += text[k++];
        const std::string closer = ")" + delim + "\"";
        std::size_t end = text.find(closer, k);
        if (end == std::string::npos) end = n;
        for (std::size_t p = j; p < std::min(end, n); ++p) {
          if (text[p] == '\n') ++line;
        }
        i = std::min(end + closer.size(), n);
        continue;
      }
      out.tokens.push_back({Token::Kind::kIdent, std::move(word), line});
      i = j;
      continue;
    }

    // pp-number: consumes digit separators and suffixes, so 0x70657266'67ULL
    // never opens a char literal.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::size_t j = i + 1;
      while (j < n) {
        const char d = text[j];
        if (ident_char(d) || d == '.') {
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && j + 1 < n &&
              (text[j + 1] == '+' || text[j + 1] == '-')) {
            j += 2;
            continue;
          }
          ++j;
          continue;
        }
        if (d == '\'' && j + 1 < n && ident_char(text[j + 1])) {
          j += 2;
          continue;
        }
        break;
      }
      i = j;
      continue;
    }

    // String literal.
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && text[j] != '"') {
        if (text[j] == '\\' && j + 1 < n) ++j;
        if (text[j] == '\n') ++line;
        ++j;
      }
      i = j + 1;
      continue;
    }
    // Char literal.
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && text[j] != '\'') {
        if (text[j] == '\\' && j + 1 < n) ++j;
        if (text[j] == '\n') ++line;
        ++j;
      }
      i = j + 1;
      continue;
    }

    // Punctuation the rules care about.
    if (c == ':' && peek(1) == ':') {
      out.tokens.push_back({Token::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      out.tokens.push_back({Token::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    if (c == '.' || c == '(' || c == ')') {
      out.tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
      ++i;
      continue;
    }
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule tables.

const std::unordered_set<std::string>& d1_idents() {
  static const std::unordered_set<std::string> kSet = {
      "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "knuth_b", "ranlux24", "ranlux24_base",
      "ranlux48", "ranlux48_base", "uniform_int_distribution",
      "uniform_real_distribution", "normal_distribution",
      "bernoulli_distribution", "binomial_distribution",
      "poisson_distribution", "geometric_distribution",
      "negative_binomial_distribution", "exponential_distribution",
      "gamma_distribution", "weibull_distribution",
      "extreme_value_distribution", "cauchy_distribution",
      "lognormal_distribution", "chi_squared_distribution",
      "student_t_distribution", "fisher_f_distribution",
      "discrete_distribution", "piecewise_constant_distribution",
      "piecewise_linear_distribution", "random_shuffle", "drand48", "lrand48",
      "mrand48", "rand_r", "srandom"};
  return kSet;
}

/// D1 names too common to flag bare — only when written std::<name>.
const std::unordered_set<std::string>& d1_std_only() {
  static const std::unordered_set<std::string> kSet = {"rand", "srand",
                                                       "random"};
  return kSet;
}

const std::unordered_set<std::string>& d2_idents() {
  static const std::unordered_set<std::string> kSet = {
      "chrono",        "clock_gettime", "gettimeofday",
      "timespec_get",  "steady_clock",  "system_clock",
      "high_resolution_clock", "ftime"};
  return kSet;
}

const std::unordered_set<std::string>& d3_idents() {
  static const std::unordered_set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

/// D4 stream names requiring a std:: qualifier to fire.
const std::unordered_set<std::string>& d4_std_only() {
  static const std::unordered_set<std::string> kSet = {"cout", "cerr", "clog"};
  return kSet;
}

const std::unordered_set<std::string>& d4_idents() {
  static const std::unordered_set<std::string> kSet = {
      "printf", "fprintf", "vprintf", "vfprintf", "puts",
      "fputs",  "putchar", "fputc",   "putc"};
  return kSet;
}

const std::unordered_map<std::string, Rule>& banned_headers() {
  static const std::unordered_map<std::string, Rule> kMap = {
      {"random", Rule::kD1},        {"chrono", Rule::kD2},
      {"unordered_map", Rule::kD3}, {"unordered_set", Rule::kD3},
      {"iostream", Rule::kD4}};
  return kMap;
}

const std::unordered_set<std::string>& d5_members() {
  static const std::unordered_set<std::string> kSet = {"counter",
                                                       "histogram"};
  return kSet;
}

// ---------------------------------------------------------------------------
// Suppression bookkeeping.

class Suppressions {
 public:
  Suppressions(const std::string& text, const std::vector<Directive>& dirs) {
    for (const Directive& d : dirs) {
      switch (d.kind) {
        case Directive::Kind::kAllowFile:
          file_[static_cast<std::size_t>(d.rule)] = true;
          break;
        case Directive::Kind::kAllowLine: {
          auto& lines = lines_[static_cast<std::size_t>(d.rule)];
          lines.insert(d.line);
          lines.insert(next_code_line(text, d.line));
          break;
        }
        case Directive::Kind::kPath:
          break;
      }
    }
  }

  [[nodiscard]] bool allowed(Rule rule, std::size_t line) const {
    const std::size_t r = static_cast<std::size_t>(rule);
    return file_[r] || lines_[r].count(line) > 0;
  }

 private:
  /// First line after `line` with code on it (so an allow comment — even a
  /// multi-line one whose justification continues on further // lines —
  /// covers the statement right below it). Blank and //-only lines are
  /// skipped; everything else counts as code.
  [[nodiscard]] static std::size_t next_code_line(const std::string& text,
                                                  std::size_t line) {
    std::size_t cur = 1;
    std::size_t i = 0;
    while (i < text.size() && cur <= line) {
      if (text[i] == '\n') ++cur;
      ++i;
    }
    // i is at the start of line `line + 1`; cur == line + 1.
    std::size_t first_nonws = std::string::npos;  // within the current line
    while (i < text.size()) {
      const char c = text[i];
      if (c == '\n') {
        const bool comment_only =
            first_nonws != std::string::npos &&
            text.compare(first_nonws, 2, "//") == 0;
        if (first_nonws != std::string::npos && !comment_only) return cur;
        ++cur;
        first_nonws = std::string::npos;
      } else if (c != ' ' && c != '\t' && c != '\r' &&
                 first_nonws == std::string::npos) {
        first_nonws = i;
      }
      ++i;
    }
    return first_nonws == std::string::npos ? line : cur;
  }

  std::array<bool, kRuleCount> file_{};
  std::array<std::set<std::size_t>, kRuleCount> lines_;
};

// ---------------------------------------------------------------------------
// The pass proper.

void run_rules(const std::string& relpath, const LexResult& lexed,
               const Suppressions& allow, std::vector<Diagnostic>* out) {
  const FileScope scope = classify(relpath);
  const std::vector<Token>& toks = lexed.tokens;

  const auto emit = [&](Rule rule, std::size_t line,
                        const std::string& message) {
    if (!allow.allowed(rule, line)) {
      out->push_back({relpath, line, rule, message});
    }
  };

  const auto prev_is_std_scope = [&](std::size_t idx) {
    return idx >= 2 && toks[idx - 1].kind == Token::Kind::kPunct &&
           toks[idx - 1].text == "::" &&
           toks[idx - 2].kind == Token::Kind::kIdent &&
           toks[idx - 2].text == "std";
  };

  for (std::size_t idx = 0; idx < toks.size(); ++idx) {
    const Token& t = toks[idx];

    if (t.kind == Token::Kind::kHeader) {
      const auto it = banned_headers().find(t.text);
      if (it == banned_headers().end()) continue;
      switch (it->second) {
        case Rule::kD1:
          if (!scope.rng_whitelist) {
            emit(Rule::kD1, t.line,
                 "#include <" + t.text +
                     "> — raw randomness belongs to util/rng.hpp and "
                     "util/binomial.hpp only");
          }
          break;
        case Rule::kD2:
          if (scope.library && !scope.timing_whitelist) {
            emit(Rule::kD2, t.line,
                 "#include <" + t.text +
                     "> — wall-clock access is reserved to the timing "
                     "whitelist (util/timer, obs/, util/thread_pool)");
          }
          break;
        case Rule::kD3:
          if (scope.det_subsystem) {
            emit(Rule::kD3, t.line,
                 "#include <" + t.text +
                     "> in a deterministic subsystem — iteration order can "
                     "leak into results");
          }
          break;
        case Rule::kD4:
          if (scope.library) {
            emit(Rule::kD4, t.line,
                 "#include <" + t.text +
                     "> in library code — stdio/streams belong to apps/, "
                     "bench/ and tests/");
          }
          break;
        default:
          break;
      }
      continue;
    }

    if (t.kind != Token::Kind::kIdent) continue;

    // D1 — raw randomness.
    if (!scope.rng_whitelist &&
        (d1_idents().count(t.text) > 0 ||
         (d1_std_only().count(t.text) > 0 && prev_is_std_scope(idx)))) {
      emit(Rule::kD1, t.line,
           "raw randomness '" + t.text +
               "' — every draw must go through util::Rng with a derived "
               "per-(round,shard) seed");
    }

    // D2 — wall-clock reads in library code.
    if (scope.library && !scope.timing_whitelist &&
        d2_idents().count(t.text) > 0) {
      emit(Rule::kD2, t.line,
           "wall-clock read '" + t.text +
               "' outside the timing whitelist — take timings through "
               "util::Stopwatch or obs:: spans");
    }

    // D3 — unordered containers in deterministic subsystems.
    if (scope.det_subsystem && d3_idents().count(t.text) > 0) {
      emit(Rule::kD3, t.line,
           "'" + t.text +
               "' in a deterministic subsystem — iteration order is "
               "implementation-defined and can leak into results; use a "
               "vector / sorted structure, or annotate the lookup-only use");
    }

    // D4 — printing from library code.
    if (scope.library &&
        (d4_idents().count(t.text) > 0 ||
         (d4_std_only().count(t.text) > 0 && prev_is_std_scope(idx)))) {
      emit(Rule::kD4, t.line,
           "'" + t.text +
               "' in library code — return strings or write to a "
               "caller-supplied ostream; printing belongs to apps/ and "
               "bench/");
    }

    // D5 — Registry registrations must name a determinism class.
    if (d5_members().count(t.text) > 0 && idx >= 1 &&
        toks[idx - 1].kind == Token::Kind::kPunct &&
        (toks[idx - 1].text == "." || toks[idx - 1].text == "->") &&
        idx + 1 < toks.size() && toks[idx + 1].kind == Token::Kind::kPunct &&
        toks[idx + 1].text == "(") {
      bool named = false;
      int depth = 0;
      for (std::size_t j = idx + 1; j < toks.size(); ++j) {
        const Token& a = toks[j];
        if (a.kind == Token::Kind::kPunct) {
          if (a.text == "(") ++depth;
          if (a.text == ")" && --depth == 0) break;
        } else if (a.kind == Token::Kind::kIdent &&
                   (a.text == "kDeterministic" || a.text == "kTiming")) {
          named = true;
          break;
        }
      }
      if (!named) {
        emit(Rule::kD5, t.line,
             "obs::Registry registration '." + t.text +
                 "(...)' without an explicit obs::MetricClass "
                 "(kDeterministic / kTiming)");
      }
    }

    // D6 — thread_local outside the shard caches.
    if (t.text == "thread_local" && !scope.thread_local_whitelist) {
      emit(Rule::kD6, t.line,
           "'thread_local' outside the whitelisted per-thread shard caches "
           "(obs registry / trace buffers)");
    }

    // D7 — std::hash in deterministic subsystems. Its output is
    // implementation-defined (and address-dependent for pointer keys), so
    // anything derived from it — an ordering, a shard choice, a fingerprint
    // — can differ run to run or build to build.
    if (scope.det_subsystem && t.text == "hash" && prev_is_std_scope(idx)) {
      emit(Rule::kD7, t.line,
           "'std::hash' in a deterministic subsystem — its value is "
           "implementation-defined (address-dependent for pointers); digest "
           "with dsan::Digest / FNV-1a over explicit bytes instead");
    }
  }
}

}  // namespace

const char* rule_name(Rule rule) noexcept {
  static constexpr std::array<const char*, kRuleCount> kNames = {
      "D1", "D2", "D3", "D4", "D5", "D6", "D7"};
  return kNames[static_cast<std::size_t>(rule)];
}

const char* rule_summary(Rule rule) noexcept {
  static constexpr std::array<const char*, kRuleCount> kSummaries = {
      "raw randomness outside util/rng.hpp + util/binomial.hpp",
      "wall-clock reads outside the timing whitelist (util/timer, obs/, "
      "util/thread_pool)",
      "unordered containers in deterministic subsystems "
      "(src/core, src/engine, src/tasks, src/mem, src/util)",
      "stdio/stream printing from library code (src/)",
      "obs::Registry registration without an explicit kDeterministic/kTiming",
      "thread_local outside the whitelisted shard caches",
      "std::hash (implementation-defined, address-dependent for pointers) "
      "in deterministic subsystems"};
  return kSummaries[static_cast<std::size_t>(rule)];
}

std::string Diagnostic::render() const {
  std::ostringstream os;
  os << file << ":" << line << ": " << rule_name(rule) << ": " << message;
  return os.str();
}

std::vector<Diagnostic> lint_source(const std::string& relpath,
                                    const std::string& text) {
  LexResult lexed = lex(relpath, text);

  // A path(...) directive re-homes the file for scoping *and* reporting —
  // fixtures under tests/ use it to opt into library-scoped rules.
  std::string effective = relpath;
  for (const Directive& d : lexed.directives) {
    if (d.kind == Directive::Kind::kPath) effective = d.path;
  }

  const Suppressions allow(text, lexed.directives);
  std::vector<Diagnostic> out;
  for (Diagnostic& e : lexed.errors) {
    e.file = effective;
    out.push_back(std::move(e));
  }
  run_rules(effective, lexed, allow, &out);
  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    if (a.line != b.line) return a.line < b.line;
    return static_cast<int>(a.rule) < static_cast<int>(b.rule);
  });
  return out;
}

std::vector<Diagnostic> lint_file(const std::string& path,
                                  const std::string& relpath) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("tlb_lint: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source(relpath, buf.str());
}

std::vector<Diagnostic> lint_tree(const std::string& root,
                                  const std::vector<std::string>& dirs,
                                  std::vector<std::string>* files_scanned) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> files;  // (relpath, path)
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) {
      throw std::runtime_error("tlb_lint: no such directory: " +
                               base.string());
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      const std::string rel =
          (fs::path(dir) / fs::relative(entry.path(), base)).generic_string();
      files.emplace_back(rel, entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Diagnostic> out;
  for (const auto& [rel, path] : files) {
    std::vector<Diagnostic> diags = lint_file(path, rel);
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
    if (files_scanned != nullptr) files_scanned->push_back(rel);
  }
  return out;
}

const std::vector<std::string>& default_scan_dirs() {
  static const std::vector<std::string> kDirs = {"apps", "bench", "src"};
  return kDirs;
}

}  // namespace tlb::lint
