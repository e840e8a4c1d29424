// vhadoop_lint self-tests: each rule against hit / miss / suppression
// fixtures (tests/lint/fixtures/), plus lexer unit tests on inline sources.
//
// The fixtures are never compiled and never seen by the tree-wide lint.tree
// ctest case (the walker skips tests/lint/); they exist only as input here.

#include "vhadoop_lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

vlint::SourceFile load_fixture(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return vlint::lex(name, "tests/lint/fixtures/" + name, buf.str());
}

vlint::Result lint_fixture(const std::string& name) {
  std::vector<vlint::SourceFile> files;
  files.push_back(load_fixture(name));
  return vlint::run(files);
}

vlint::Result lint_source(const std::string& rel, const std::string& text) {
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex(rel, rel, text));
  return vlint::run(files);
}

int count_rule(const vlint::Result& res, const std::string& rule, bool suppressed = false) {
  return static_cast<int>(
      std::count_if(res.findings.begin(), res.findings.end(), [&](const vlint::Finding& f) {
        return f.rule == rule && f.suppressed == suppressed;
      }));
}

// --- no-wall-clock ---------------------------------------------------------

TEST(NoWallClock, FlagsEveryHostClockRead) {
  const auto res = lint_fixture("wall_clock_hit.cpp");
  EXPECT_EQ(count_rule(res, "no-wall-clock"), 6);
  EXPECT_EQ(res.unsuppressed, 6);
}

TEST(NoWallClock, IgnoresMembersOtherNamespacesAndLiterals) {
  const auto res = lint_fixture("wall_clock_miss.cpp");
  EXPECT_EQ(res.unsuppressed, 0) << "false positive in wall_clock_miss.cpp";
}

TEST(NoWallClock, SuppressionWithReasonSilencesBothForms) {
  const auto res = lint_fixture("wall_clock_suppressed.cpp");
  EXPECT_EQ(res.unsuppressed, 0);
  EXPECT_EQ(count_rule(res, "no-wall-clock", /*suppressed=*/true), 2);
  for (const auto& f : res.findings) {
    if (f.suppressed) {
      EXPECT_FALSE(f.reason.empty());
    }
  }
}

TEST(NoWallClock, SimTimeHeaderIsExempt) {
  const auto res =
      lint_source("src/sim/time.hpp", "#pragma once\n#include <chrono>\n"
                                      "inline auto t() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_EQ(res.unsuppressed, 0);
}

// --- no-os-entropy ---------------------------------------------------------

TEST(NoOsEntropy, FlagsEveryEntropySource) {
  const auto res = lint_fixture("entropy_hit.cpp");
  EXPECT_EQ(count_rule(res, "no-os-entropy"), 5);
}

TEST(NoOsEntropy, IgnoresMembersAndSubstrings) {
  const auto res = lint_fixture("entropy_miss.cpp");
  EXPECT_EQ(res.unsuppressed, 0) << "false positive in entropy_miss.cpp";
}

TEST(NoOsEntropy, SuppressedGetenvIsClean) {
  const auto res = lint_fixture("entropy_suppressed.cpp");
  EXPECT_EQ(res.unsuppressed, 0);
  EXPECT_EQ(count_rule(res, "no-os-entropy", /*suppressed=*/true), 1);
}

TEST(NoOsEntropy, RngImplementationIsExempt) {
  const auto res = lint_source("src/sim/rng.cpp",
                               "#include <random>\nstd::random_device seed_source;\n");
  EXPECT_EQ(res.unsuppressed, 0);
}

// --- bad-suppression -------------------------------------------------------

TEST(BadSuppression, MissingReasonUnknownRuleMalformedAndUncitedAllFlagged) {
  const auto res = lint_fixture("bad_suppression.cpp");
  EXPECT_EQ(count_rule(res, "bad-suppression"), 4);
  // Neither the reason-less allow() nor the one that cites no auditing PR
  // may silence the getenv finding under it.
  EXPECT_EQ(count_rule(res, "no-os-entropy"), 2);
}

// --- no-unordered-iteration ------------------------------------------------

TEST(NoUnorderedIteration, FlagsRangeForIteratorAndAliasLoops) {
  const auto res = lint_fixture("unordered_hit.cpp");
  EXPECT_EQ(count_rule(res, "no-unordered-iteration"), 4);
}

TEST(NoUnorderedIteration, OrderedContainersAndPointAccessAreClean) {
  const auto res = lint_fixture("unordered_miss.cpp");
  EXPECT_EQ(res.unsuppressed, 0) << "false positive in unordered_miss.cpp";
}

TEST(NoUnorderedIteration, SuppressionWithReasonAccepted) {
  const auto res = lint_fixture("unordered_suppressed.cpp");
  EXPECT_EQ(res.unsuppressed, 0);
  EXPECT_EQ(count_rule(res, "no-unordered-iteration", /*suppressed=*/true), 1);
}

TEST(NoUnorderedIteration, ResolvesMemberTypeAcrossFiles) {
  // Declaration in the "header", iteration in the "cpp" — the name set is
  // global across the linted file set.
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("t.hpp", "t.hpp",
                             "#pragma once\n#include <unordered_map>\n"
                             "struct S { std::unordered_map<int,int> table_; };\n"));
  files.push_back(vlint::lex("t.cpp", "t.cpp",
                             "#include \"t.hpp\"\nint f(S& s) {\n  int n = 0;\n"
                             "  for (auto& [k, v] : s.table_) n += v;\n  return n;\n}\n"));
  const auto res = vlint::run(files);
  EXPECT_EQ(count_rule(res, "no-unordered-iteration"), 1);
}

// --- metric-name -----------------------------------------------------------

TEST(MetricName, FlagsEveryNonConformingLiteral) {
  const auto res = lint_fixture("metric_name_hit.cpp");
  EXPECT_EQ(count_rule(res, "metric-name"), 6);
  EXPECT_EQ(res.unsuppressed, 6);
}

TEST(MetricName, CompliantPrefixesAndNonRegistryCallsAreClean) {
  const auto res = lint_fixture("metric_name_miss.cpp");
  EXPECT_EQ(res.unsuppressed, 0) << "false positive in metric_name_miss.cpp";
}

TEST(MetricName, SuppressionWithReasonAccepted) {
  const auto res = lint_fixture("metric_name_suppressed.cpp");
  EXPECT_EQ(res.unsuppressed, 0);
  EXPECT_EQ(count_rule(res, "metric-name", /*suppressed=*/true), 1);
}

TEST(MetricName, ArrowCallAndDottedPrefixEndingInDot) {
  const auto res = lint_source(
      "m.cpp",
      "int f(R* r, const std::string& q) {\n"
      "  return r->counter(\"mr.queue.\" + q + \".slo_missed\");\n"
      "}\n");
  EXPECT_EQ(count_rule(res, "metric-name"), 0);
}

// --- header hygiene --------------------------------------------------------

TEST(HeaderHygiene, MissingGuardAndUsingNamespaceFlagged) {
  const auto res = lint_fixture("missing_guard.hpp");
  EXPECT_EQ(count_rule(res, "header-guard"), 1);
  EXPECT_EQ(count_rule(res, "using-namespace-header"), 1);
}

TEST(HeaderHygiene, PragmaOnceAndIfndefGuardsAccepted) {
  EXPECT_EQ(lint_fixture("guarded_pragma.hpp").unsuppressed, 0);
  EXPECT_EQ(lint_fixture("guarded_ifndef.hpp").unsuppressed, 0);
}

TEST(HeaderHygiene, SourceFilesNeedNoGuard) {
  const auto res = lint_source("a.cpp", "#include <string>\nint x = 1;\n");
  EXPECT_EQ(count_rule(res, "header-guard"), 0);
}

// --- lexer -----------------------------------------------------------------

TEST(Lexer, StringsCommentsAndRawStringsAreOpaque) {
  const auto res = lint_source(
      "s.cpp",
      "// rand() in a line comment\n"
      "/* std::random_device in a block comment */\n"
      "const char* a = \"getenv(\\\"X\\\")\";\n"
      "const char* b = R\"(system_clock and rand())\";\n"
      "char c = 'r';\n");
  EXPECT_EQ(res.unsuppressed, 0);
}

TEST(Lexer, TracksLineNumbersAcrossMultilineConstructs) {
  const auto f = vlint::lex("l.cpp", "l.cpp",
                            "/* one\n   two\n   three */\nint marker = 1;\n");
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens.front().line, 4);
}

TEST(Lexer, DirectiveInBlockCommentGetsItsOwnLine) {
  const auto f = vlint::lex("d.cpp", "d.cpp",
                            "/*\n vlint: allow(no-os-entropy) spans lines\n*/\nint x;\n");
  ASSERT_EQ(f.suppressions.size(), 1u);
  EXPECT_EQ(f.suppressions[0].line, 2);
  EXPECT_EQ(f.suppressions[0].rule, "no-os-entropy");
  EXPECT_EQ(f.suppressions[0].reason, "spans lines");
}

TEST(Rules, ListIsStableAndKnown) {
  EXPECT_TRUE(vlint::is_known_rule("no-wall-clock"));
  EXPECT_TRUE(vlint::is_known_rule("no-unordered-iteration"));
  EXPECT_TRUE(vlint::is_known_rule("metric-name"));
  EXPECT_TRUE(vlint::is_known_rule("thread-shared-mutation"));
  EXPECT_TRUE(vlint::is_known_rule("no-unordered-float-accumulation"));
  EXPECT_TRUE(vlint::is_known_rule("no-exact-float-compare"));
  EXPECT_TRUE(vlint::is_known_rule("layer-dag"));
  EXPECT_TRUE(vlint::is_known_rule("include-self-sufficiency"));
  EXPECT_FALSE(vlint::is_known_rule("no-such-rule"));
}

// --- thread-shared-mutation ------------------------------------------------

vlint::Result lint_fixtures(const std::vector<std::string>& names) {
  std::vector<vlint::SourceFile> files;
  for (const auto& name : names) files.push_back(load_fixture(name));
  return vlint::run(files);
}

TEST(ThreadSharedMutation, CrossTuRaceIsCaught) {
  // The parallel_for lambda lives in race_entry.cpp; the unsynchronized
  // write to namespace-scope state it reaches lives two files away in
  // race_worker.cpp. The finding must land on the write.
  const auto res = lint_fixtures({"race_shared.hpp", "race_worker.cpp", "race_entry.cpp"});
  EXPECT_EQ(count_rule(res, "thread-shared-mutation"), 1);
  for (const auto& f : res.findings) {
    if (f.rule != "thread-shared-mutation") continue;
    EXPECT_EQ(f.path, "race_worker.cpp");
    EXPECT_NE(f.message.find("total"), std::string::npos);
    EXPECT_NE(f.message.find("race_entry.cpp"), std::string::npos) << "witness missing";
  }
}

TEST(ThreadSharedMutation, LockGuardedVariantIsQuiet) {
  const auto res = lint_fixture("race_guarded.cpp");
  EXPECT_EQ(count_rule(res, "thread-shared-mutation"), 0);
}

TEST(ThreadSharedMutation, PerSlotWritesAreSanctioned) {
  const auto res = lint_fixture("race_slots.cpp");
  EXPECT_EQ(count_rule(res, "thread-shared-mutation"), 0);
}

TEST(ThreadSharedMutation, CitedSuppressionAccepted) {
  const auto res = lint_fixture("race_suppressed.cpp");
  EXPECT_EQ(res.unsuppressed, 0);
  EXPECT_EQ(count_rule(res, "thread-shared-mutation", /*suppressed=*/true), 1);
}

TEST(ThreadSharedMutation, PlainSubmitIsNotAWorkerEntry) {
  // Engine::submit schedules onto the single simulation thread; only
  // pool-ish receivers make submit a worker entry point.
  const auto res = lint_source("s.cpp",
                               "long n = 0;\n"
                               "void f(E& engine) {\n"
                               "  engine.submit(1.0, [&] { n += 1; });\n"
                               "}\n");
  EXPECT_EQ(count_rule(res, "thread-shared-mutation"), 0);
}

// --- no-unordered-float-accumulation ---------------------------------------

TEST(FloatAccumulation, CompoundAndRebindFormsFlagged) {
  const auto res = lint_fixture("float_acc_hit.cpp");
  EXPECT_EQ(count_rule(res, "no-unordered-float-accumulation"), 2);
}

TEST(FloatAccumulation, IntegerTalliesAndOrderedContainersAreClean) {
  const auto res = lint_fixture("float_acc_miss.cpp");
  EXPECT_EQ(count_rule(res, "no-unordered-float-accumulation"), 0);
}

TEST(FloatAccumulation, CitedSuppressionAccepted) {
  const auto res = lint_fixture("float_acc_suppressed.cpp");
  EXPECT_EQ(res.unsuppressed, 0);
  EXPECT_EQ(count_rule(res, "no-unordered-float-accumulation", /*suppressed=*/true), 1);
}

// --- no-exact-float-compare ------------------------------------------------

TEST(FloatCompare, LiteralAndMemberChainOperandsFlagged) {
  const auto res = lint_fixture("float_cmp_hit.cpp");
  EXPECT_EQ(count_rule(res, "no-exact-float-compare"), 2);
}

TEST(FloatCompare, CallTerminalsSentinelsAndIntegralNamesAreClean) {
  const auto res = lint_fixture("float_cmp_miss.cpp");
  EXPECT_EQ(count_rule(res, "no-exact-float-compare"), 0);
}

TEST(FloatCompare, FileScopeSuppressionCoversWholeOracle) {
  const auto res = lint_fixture("float_cmp_suppressed.cpp");
  EXPECT_EQ(res.unsuppressed, 0);
  EXPECT_EQ(count_rule(res, "no-exact-float-compare", /*suppressed=*/true), 2);
}

TEST(FloatCompare, OwnIntegralDeclarationBeatsIncludedFloat) {
  // The header declares `double v`; the cpp's own `std::uint64_t v` must
  // win for uses inside the cpp.
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("h.hpp", "h.hpp",
                             "#pragma once\nstruct M { double v = 0.0; };\n"));
  files.push_back(vlint::lex("c.cpp", "c.cpp",
                             "#include \"h.hpp\"\n"
                             "bool f() {\n  std::uint64_t v = 1;\n  return v != 0;\n}\n"));
  const auto res = vlint::run(files);
  EXPECT_EQ(count_rule(res, "no-exact-float-compare"), 0);
}

// --- layer-dag -------------------------------------------------------------

TEST(LayerDag, UpwardIncludeFlagged) {
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("src/ml/kmeans.hpp", "src/ml/kmeans.hpp",
                             "#pragma once\nnamespace ml { struct KMeans {}; }\n"));
  files.push_back(vlint::lex("src/sim/engine2.cpp", "src/sim/engine2.cpp",
                             "#include \"ml/kmeans.hpp\"\nint f() { return 0; }\n"));
  const auto res = vlint::run(files);
  EXPECT_EQ(count_rule(res, "layer-dag"), 1);
  for (const auto& f : res.findings) {
    if (f.rule == "layer-dag") {
      EXPECT_EQ(f.path, "src/sim/engine2.cpp");
    }
  }
}

TEST(LayerDag, DownwardIncludeAllowed) {
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("src/sim/clock.hpp", "src/sim/clock.hpp",
                             "#pragma once\nnamespace sim { struct Clock {}; }\n"));
  files.push_back(vlint::lex("src/ml/kmeans.cpp", "src/ml/kmeans.cpp",
                             "#include \"sim/clock.hpp\"\nint g() { return 1; }\n"));
  const auto res = vlint::run(files);
  EXPECT_EQ(count_rule(res, "layer-dag"), 0);
}

TEST(LayerDag, UnknownModuleWithCrossModuleEdgeIsReported) {
  // A module missing from the layering table is reported as soon as it
  // grows a cross-module include edge.
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("src/sim/clock.hpp", "src/sim/clock.hpp",
                             "#pragma once\nnamespace sim { struct Clock {}; }\n"));
  files.push_back(vlint::lex("src/mystery/x.cpp", "src/mystery/x.cpp",
                             "#include \"sim/clock.hpp\"\nint h() { return 2; }\n"));
  const auto res = vlint::run(files);
  EXPECT_EQ(count_rule(res, "layer-dag"), 1);
  for (const auto& f : res.findings) {
    if (f.rule == "layer-dag") {
      EXPECT_NE(f.message.find("not in the layering table"), std::string::npos);
    }
  }
}

// --- include-self-sufficiency ----------------------------------------------

TEST(IncludeSelfSufficiency, MissingIncludeFlaggedWithFixSpec) {
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("src/util/dep.hpp", "src/util/dep.hpp",
                             "#pragma once\nstruct Helper { int n = 0; };\n"));
  files.push_back(vlint::lex("src/app/use.cpp", "src/app/use.cpp",
                             "int size_of(const Helper& h) { return h.n; }\n"));
  const auto res = vlint::run(files);
  EXPECT_EQ(count_rule(res, "include-self-sufficiency"), 1);
  for (const auto& f : res.findings) {
    if (f.rule == "include-self-sufficiency") {
      EXPECT_EQ(f.path, "src/app/use.cpp");
      EXPECT_EQ(f.fix_include, "util/dep.hpp");
    }
  }
}

TEST(IncludeSelfSufficiency, TransitiveClosureResolves) {
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("src/util/dep.hpp", "src/util/dep.hpp",
                             "#pragma once\nstruct Helper { int n = 0; };\n"));
  files.push_back(vlint::lex("src/app/mid.hpp", "src/app/mid.hpp",
                             "#pragma once\n#include \"util/dep.hpp\"\n"));
  files.push_back(vlint::lex("src/app/use.cpp", "src/app/use.cpp",
                             "#include \"app/mid.hpp\"\n"
                             "int size_of(const Helper& h) { return h.n; }\n"));
  const auto res = vlint::run(files);
  EXPECT_EQ(count_rule(res, "include-self-sufficiency"), 0);
}

TEST(IncludeSelfSufficiency, CppOnlySymbolsAreNotActionable) {
  // A name exported solely by a .cpp (e.g. a macro expansion artifact) has
  // no include to suggest; the rule must stay quiet.
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("src/a/impl.cpp", "src/a/impl.cpp",
                             "int OnlyHere() { return 1; }\n"));
  files.push_back(vlint::lex("src/b/use.cpp", "src/b/use.cpp",
                             "int call() { return OnlyHere(); }\n"));
  const auto res = vlint::run(files);
  EXPECT_EQ(count_rule(res, "include-self-sufficiency"), 0);
}

// --- apply_fixes (--fix) ---------------------------------------------------

std::string read_fixture_text(const std::string& name) {
  const std::string path = std::string(LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Fix, GoldenHeaderGuardAndMissingInclude) {
  // fix_input.hpp (no guard, uses fx::Helper without the include) must fix
  // to exactly fix_expected.hpp when linted beside fix_dep.hpp.
  const std::string input = read_fixture_text("fix_input.hpp");
  const std::string expected = read_fixture_text("fix_expected.hpp");
  std::vector<vlint::SourceFile> files;
  files.push_back(vlint::lex("src/util/fix_dep.hpp", "src/util/fix_dep.hpp",
                             read_fixture_text("fix_dep.hpp")));
  files.push_back(vlint::lex("src/util/fix_input.hpp", "src/util/fix_input.hpp", input));
  const auto res = vlint::run(files);
  EXPECT_GE(res.unsuppressed, 2);  // header-guard + include-self-sufficiency
  const std::string repaired = vlint::apply_fixes(files[1], input, res.findings);
  EXPECT_EQ(repaired, expected);

  // And the golden output itself lints clean.
  std::vector<vlint::SourceFile> fixed;
  fixed.push_back(files[0]);
  fixed.push_back(vlint::lex("src/util/fix_input.hpp", "src/util/fix_input.hpp", expected));
  EXPECT_EQ(vlint::run(fixed).unsuppressed, 0);
}

// --- report shapes (JSON / SARIF) ------------------------------------------

TEST(Report, SarifCarriesSchemaRulesLocationsAndSuppressions) {
  std::vector<vlint::SourceFile> files;
  files.push_back(load_fixture("entropy_hit.cpp"));
  files.push_back(load_fixture("wall_clock_suppressed.cpp"));
  const auto res = vlint::run(files);
  std::ostringstream os;
  vlint::write_sarif(os, res, {});
  const std::string sarif = os.str();
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"vhadoop_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"no-os-entropy\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": "), std::string::npos);
  EXPECT_NE(sarif.find("\"kind\": \"inSource\""), std::string::npos);
  // Every rule is declared in the driver table.
  for (const auto& rule : vlint::kRules) {
    EXPECT_NE(sarif.find("{\"id\": \"" + rule + "\"}"), std::string::npos) << rule;
  }
}

TEST(Report, JsonListsEveryFindingWithSuppressionState) {
  std::vector<vlint::SourceFile> files;
  files.push_back(load_fixture("wall_clock_suppressed.cpp"));
  const auto res = vlint::run(files);
  std::ostringstream os;
  vlint::write_json(os, res, {});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"rule\": \"no-wall-clock\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": true"), std::string::npos);
}

}  // namespace
