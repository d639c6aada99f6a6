// tlb::lint — the determinism-discipline linter, tested three ways:
//
//   1. inline snippets pinning each rule's fire/no-fire boundary (scope,
//      std:: qualification, strings/comments, word boundaries),
//   2. the committed fixtures under tests/lint_fixtures/ (one bad file per
//      rule that MUST produce that rule, one good file that must be clean),
//   3. the live tree itself: src/, apps/ and bench/ lint clean, which is
//      exactly what `tlb_lint --gate` enforces in CI.
//
// TLB_SOURCE_DIR is injected by tests/CMakeLists.txt so (2) and (3) can
// find the checkout from wherever ctest runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tlb/lint/lint.hpp"

namespace lint = tlb::lint;

namespace {

std::vector<lint::Diagnostic> run(const std::string& relpath,
                                  const std::string& text) {
  return lint::lint_source(relpath, text);
}

bool fires(const std::vector<lint::Diagnostic>& diags, lint::Rule rule) {
  return std::any_of(diags.begin(), diags.end(), [rule](const auto& d) {
    return d.rule == rule;
  });
}

std::string fixture(const std::string& name) {
  return std::string(TLB_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

TEST(LintTest, RuleNamesAndSummariesAreStable) {
  EXPECT_STREQ(lint::rule_name(lint::Rule::kD1), "D1");
  EXPECT_STREQ(lint::rule_name(lint::Rule::kD6), "D6");
  for (std::size_t i = 0; i < lint::kRuleCount; ++i) {
    const auto r = static_cast<lint::Rule>(i);
    EXPECT_NE(std::string(lint::rule_summary(r)), "");
  }
}

TEST(LintTest, D1FiresOnRawRandomnessOutsideRngFiles) {
  const std::string src = "int f() { std::mt19937 g(1); return g(); }\n";
  EXPECT_TRUE(fires(run("src/core/x.cpp", src), lint::Rule::kD1));
  // apps/ and bench/ draw through util::Rng too — D1 is tree-wide.
  EXPECT_TRUE(fires(run("apps/x.cpp", src), lint::Rule::kD1));
  // ...but the two RNG implementation files are the whitelist.
  EXPECT_FALSE(fires(run("src/util/rng.cpp", src), lint::Rule::kD1));
  EXPECT_FALSE(fires(run("src/include/tlb/util/binomial.hpp", src),
                     lint::Rule::kD1));
}

TEST(LintTest, D1CommonNamesNeedStdQualification) {
  // std::rand is banned; a local identifier `rand` is not.
  EXPECT_TRUE(fires(run("src/core/x.cpp", "int x = std::rand();\n"),
                    lint::Rule::kD1));
  EXPECT_FALSE(fires(run("src/core/x.cpp", "int rand = 3; (void)rand;\n"),
                     lint::Rule::kD1));
  EXPECT_TRUE(fires(run("src/core/x.cpp", "#include <random>\n"),
                    lint::Rule::kD1));
}

TEST(LintTest, D2FiresOnWallClockReadsOutsideTimingWhitelist) {
  const std::string src =
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(fires(run("src/core/x.cpp", src), lint::Rule::kD2));
  EXPECT_TRUE(fires(run("src/sim/x.cpp", src), lint::Rule::kD2));
  // The timing-class whitelist: timer, obs spans/trace, the thread pool.
  EXPECT_FALSE(fires(run("src/include/tlb/util/timer.hpp", src),
                     lint::Rule::kD2));
  EXPECT_FALSE(fires(run("src/obs/registry.cpp", src), lint::Rule::kD2));
  EXPECT_FALSE(fires(run("src/util/thread_pool.cpp", src), lint::Rule::kD2));
  // D2 is a *library* rule — apps may read clocks.
  EXPECT_FALSE(fires(run("apps/x.cpp", src), lint::Rule::kD2));
}

TEST(LintTest, D2RespectsWordBoundaries) {
  // "synchronous" contains "chrono"; an identifier-level match must not
  // fire (the original grep-based check did — that bug motivated the
  // token lexer).
  EXPECT_TRUE(run("src/core/x.cpp",
                  "bool synchronous = true; (void)synchronous;\n")
                  .empty());
}

TEST(LintTest, D3FiresOnlyInDeterministicSubsystems) {
  const std::string src = "#include <unordered_map>\n";
  EXPECT_TRUE(fires(run("src/core/x.cpp", src), lint::Rule::kD3));
  EXPECT_TRUE(fires(run("src/engine/x.cpp", src), lint::Rule::kD3));
  EXPECT_TRUE(fires(run("src/include/tlb/tasks/x.hpp", src),
                    lint::Rule::kD3));
  // sim/ and obs/ render and buffer — hash containers are fine there.
  EXPECT_FALSE(fires(run("src/sim/x.cpp", src), lint::Rule::kD3));
  EXPECT_FALSE(fires(run("apps/x.cpp", src), lint::Rule::kD3));
}

TEST(LintTest, D4FiresOnPrintingFromLibraryCode) {
  EXPECT_TRUE(fires(run("src/sim/x.cpp", "std::cout << 1;\n"),
                    lint::Rule::kD4));
  EXPECT_TRUE(fires(run("src/core/x.cpp", "printf(\"%d\", 1);\n"),
                    lint::Rule::kD4));
  // apps/ and bench/ are the console surface.
  EXPECT_FALSE(fires(run("apps/x.cpp", "std::cout << 1;\n"),
                     lint::Rule::kD4));
  // The rule bans streams, not string formatting.
  EXPECT_FALSE(fires(run("src/core/x.cpp",
                         "char b[8]; snprintf(b, 8, \"%d\", 1);\n"),
                     lint::Rule::kD4));
}

TEST(LintTest, D5FiresOnUnclassifiedRegistryRegistrations) {
  EXPECT_TRUE(fires(run("src/core/x.cpp",
                        "auto id = reg.counter(\"a.b\");\n"),
                    lint::Rule::kD5));
  EXPECT_TRUE(fires(run("apps/x.cpp",
                        "auto id = reg->histogram(\"h\", 0.0, 1.0, 8);\n"),
                    lint::Rule::kD5));
  EXPECT_FALSE(fires(
      run("src/core/x.cpp",
          "auto id = reg.counter(\"a.b\", MetricClass::kDeterministic);\n"),
      lint::Rule::kD5));
  EXPECT_FALSE(fires(
      run("apps/x.cpp", "auto id = reg->histogram(\"h\", 0.0, 1.0, 8, "
                        "obs::MetricClass::kTiming);\n"),
      lint::Rule::kD5));
  // A plain function or variable named `counter` is not a registration.
  EXPECT_FALSE(fires(run("src/core/x.cpp",
                         "int counter = 0; counter += step(counter);\n"),
                     lint::Rule::kD5));
}

TEST(LintTest, D7FiresOnStdHashInDeterministicSubsystems) {
  const std::string src =
      "std::size_t h = std::hash<int>{}(42); (void)h;\n";
  EXPECT_TRUE(fires(run("src/core/x.cpp", src), lint::Rule::kD7));
  EXPECT_TRUE(fires(run("src/engine/x.cpp", src), lint::Rule::kD7));
  // The sanitizer itself must obey its own discipline.
  EXPECT_TRUE(fires(run("src/dsan/x.cpp", src), lint::Rule::kD7));
  EXPECT_TRUE(fires(run("src/include/tlb/dsan/x.hpp", src),
                    lint::Rule::kD7));
  // Rendering/buffering layers and apps may hash freely.
  EXPECT_FALSE(fires(run("src/sim/x.cpp", src), lint::Rule::kD7));
  EXPECT_FALSE(fires(run("apps/x.cpp", src), lint::Rule::kD7));
  // An unqualified `hash` identifier (a member, a local) is not std::hash.
  EXPECT_FALSE(fires(run("src/core/x.cpp",
                         "int hash = 3; (void)hash;\n"),
                     lint::Rule::kD7));
  EXPECT_FALSE(fires(run("src/core/x.cpp",
                         "auto h = d.hash(); (void)h;\n"),
                     lint::Rule::kD7));
}

TEST(LintTest, D6FiresOutsideShardCacheWhitelist) {
  const std::string src = "thread_local int scratch = 0;\n";
  EXPECT_TRUE(fires(run("src/core/x.cpp", src), lint::Rule::kD6));
  EXPECT_TRUE(fires(run("apps/x.cpp", src), lint::Rule::kD6));
  EXPECT_FALSE(fires(run("src/obs/registry.cpp", src), lint::Rule::kD6));
  EXPECT_FALSE(fires(run("src/obs/trace_event.cpp", src), lint::Rule::kD6));
}

TEST(LintTest, StringsCommentsAndRawStringsNeverFire) {
  EXPECT_TRUE(run("src/core/x.cpp",
                  "// std::mt19937 std::cout thread_local <random>\n"
                  "/* std::chrono::steady_clock::now() */\n"
                  "const char* s = \"std::rand() printf\";\n"
                  "const char* r = R\"(std::unordered_map thread_local)\";\n"
                  "char c = 'c';\n")
                  .empty());
}

TEST(LintTest, AllowSuppressesTheNextCodeLineOnly) {
  // Directive + justification comment + the annotated line: suppressed.
  const std::string ok =
      "// tlb-lint: allow(D3): lookup-only; iteration order is never\n"
      "// observed by any caller.\n"
      "#include <unordered_map>\n";
  EXPECT_TRUE(run("src/core/x.cpp", ok).empty());

  // The suppression reaches exactly one code line; the next occurrence
  // still fires.
  const std::string second =
      "// tlb-lint: allow(D3): first include only.\n"
      "#include <unordered_map>\n"
      "#include <unordered_set>\n";
  const auto diags = run("src/core/x.cpp", second);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3u);

  // A suppression names its rule; allow(D1) does not excuse a D3.
  EXPECT_TRUE(fires(run("src/core/x.cpp",
                        "// tlb-lint: allow(D1): wrong rule.\n"
                        "#include <unordered_map>\n"),
                    lint::Rule::kD3));
}

TEST(LintTest, AllowFileSuppressesTheWholeFile) {
  const std::string src =
      "// tlb-lint: allow-file(D4): this fixture is a renderer.\n"
      "void f() { std::cout << 1; }\n"
      "void g() { std::cerr << 2; }\n";
  EXPECT_TRUE(run("src/sim/x.cpp", src).empty());
  // Only D4 is excused.
  EXPECT_TRUE(fires(run("src/sim/x.cpp",
                        "// tlb-lint: allow-file(D4): renderer.\n"
                        "thread_local int t = 0;\n"),
                    lint::Rule::kD6));
}

TEST(LintTest, PathDirectiveRehomesScopingAndReporting) {
  // Without the directive, tests/-style paths are out of library scope.
  EXPECT_FALSE(fires(run("tests/fix.cpp", "std::cout << 1;\n"),
                     lint::Rule::kD4));
  // With it, the file lints as the named library path and reports there.
  const auto diags = run("tests/fix.cpp",
                         "// tlb-lint: path(src/sim/fix.cpp)\n"
                         "void f() { std::cout << 1; }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/sim/fix.cpp");
  EXPECT_EQ(diags[0].line, 2u);
  EXPECT_EQ(diags[0].rule, lint::Rule::kD4);
}

TEST(LintTest, DiagnosticRenderFormat) {
  lint::Diagnostic d;
  d.file = "src/core/x.cpp";
  d.line = 7;
  d.rule = lint::Rule::kD2;
  d.message = "wall-clock read";
  EXPECT_EQ(d.render(), "src/core/x.cpp:7: D2: wall-clock read");
}

TEST(LintTest, BadFixturesEachProduceTheirRule) {
  const struct {
    const char* name;
    lint::Rule rule;
  } kCases[] = {
      {"bad_d1.cpp", lint::Rule::kD1}, {"bad_d2.cpp", lint::Rule::kD2},
      {"bad_d3.cpp", lint::Rule::kD3}, {"bad_d4.cpp", lint::Rule::kD4},
      {"bad_d5.cpp", lint::Rule::kD5}, {"bad_d6.cpp", lint::Rule::kD6},
      {"bad_d7.cpp", lint::Rule::kD7},
  };
  for (const auto& c : kCases) {
    const auto diags = lint::lint_file(
        fixture(c.name), std::string("tests/lint_fixtures/") + c.name);
    EXPECT_FALSE(diags.empty()) << c.name;
    EXPECT_TRUE(fires(diags, c.rule))
        << c.name << " must produce " << lint::rule_name(c.rule);
    for (const auto& d : diags) {
      EXPECT_EQ(d.rule, c.rule)
          << c.name << " leaked an extra rule: " << d.render();
    }
  }
}

TEST(LintTest, GoodFixtureIsClean) {
  const auto diags =
      lint::lint_file(fixture("good.cpp"), "tests/lint_fixtures/good.cpp");
  for (const auto& d : diags) ADD_FAILURE() << d.render();
}

TEST(LintTest, LiveTreeLintsClean) {
  // The same scan `tlb_lint --gate` runs in CI: src/, apps/ and bench/
  // carry zero findings. Any regression lands here first.
  std::vector<std::string> scanned;
  const auto diags = lint::lint_tree(TLB_SOURCE_DIR,
                                     lint::default_scan_dirs(), &scanned);
  for (const auto& d : diags) ADD_FAILURE() << d.render();
  EXPECT_GT(scanned.size(), 100u);  // the whole tree, not a subset
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
}

}  // namespace
