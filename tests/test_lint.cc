/**
 * @file
 * mdp_lint behaves exactly as specified: every fixture in
 * tests/lint_fixtures triggers precisely the diagnostics its
 * `expect:` markers declare (no more, no less), the real tree lints
 * clean, every ordered-scope row still covers real code, and the
 * helper primitives (guard derivation, suppression parsing) hold
 * their contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint_core.hh"

namespace fs = std::filesystem;
using mdp::lint::Diag;

namespace
{

const char *const kRoot = MDP_SOURCE_DIR;

/** (line, rule) occurrence counts -- diagnostics as a multiset. */
using DiagSet = std::map<std::pair<int, std::string>, int>;

DiagSet
expectedOf(const fs::path &file)
{
    DiagSet out;
    std::ifstream in(file);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t pos = line.find("expect:");
        if (pos == std::string::npos)
            continue;
        std::istringstream rules(line.substr(pos + 7));
        std::string rule;
        while (rules >> rule)
            ++out[{lineno, rule}];
    }
    return out;
}

DiagSet
actualOf(const std::vector<Diag> &diags)
{
    DiagSet out;
    for (const Diag &d : diags)
        ++out[{d.line, d.rule}];
    return out;
}

std::string
show(const DiagSet &s)
{
    std::ostringstream os;
    for (const auto &[key, n] : s)
        os << "  line " << key.first << ": " << key.second << " x"
           << n << "\n";
    return os.str();
}

std::vector<fs::path>
fixtureFiles()
{
    std::vector<fs::path> files;
    fs::path dir = fs::path(kRoot) / "tests" / "lint_fixtures";
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::string ext = entry.path().extension().string();
        if (ext == ".cc" || ext == ".hh" || ext == ".h" ||
            ext == ".cpp")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

} // namespace

TEST(LintFixtures, CorpusIsNonTrivial)
{
    // The corpus must exercise both violating and clean fixtures.
    std::vector<fs::path> files = fixtureFiles();
    ASSERT_GE(files.size(), 8u);
    size_t with_expectations = 0;
    for (const fs::path &f : files)
        if (!expectedOf(f).empty())
            ++with_expectations;
    EXPECT_GE(with_expectations, 6u);
    EXPECT_LT(with_expectations, files.size())
        << "at least one fixture must be expected-clean";
}

TEST(LintFixtures, EveryFixtureMatchesItsMarkers)
{
    for (const fs::path &f : fixtureFiles()) {
        std::string rel =
            fs::relative(f, kRoot).generic_string();
        DiagSet expected = expectedOf(f);
        mdp::lint::LintRun run = mdp::lint::lintPaths(kRoot, {rel});
        ASSERT_EQ(run.unreadable, "");
        const std::vector<Diag> &diags = run.diags;
        for (const Diag &d : diags)
            EXPECT_EQ(d.file, rel);
        DiagSet actual = actualOf(diags);
        EXPECT_EQ(actual, expected)
            << rel << "\nexpected:\n" << show(expected)
            << "actual:\n" << show(actual);
    }
}

TEST(LintFixtures, EveryRuleIsCovered)
{
    // Each advertised rule fires on at least one fixture, so a rule
    // silently losing its teeth fails the suite.
    std::map<std::string, int> fired;
    for (const fs::path &f : fixtureFiles())
        for (const auto &[key, n] : expectedOf(f))
            fired[key.second] += n;
    for (const std::string &rule : mdp::lint::ruleNames())
        EXPECT_GT(fired[rule], 0) << "no fixture covers " << rule;
}

TEST(LintTree, RepoIsClean)
{
    std::vector<std::string> files =
        mdp::lint::discoverFiles(kRoot);
    ASSERT_GE(files.size(), 100u)
        << "discovery must see the whole tree";
    mdp::lint::LintRun run = mdp::lint::lintPaths(kRoot, files);
    ASSERT_EQ(run.unreadable, "");
    const std::vector<Diag> &diags = run.diags;
    std::ostringstream os;
    for (const Diag &d : diags)
        os << d.file << ":" << d.line << ": [" << d.rule << "] "
           << d.msg << "\n";
    EXPECT_TRUE(diags.empty()) << os.str();
}

TEST(LintTree, DiscoverySkipsFixturesAndBuildTrees)
{
    for (const std::string &f : mdp::lint::discoverFiles(kRoot)) {
        EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
        EXPECT_EQ(f.rfind("build", 0), std::string::npos) << f;
    }
}

TEST(LintCore, ScopeTableTargetsExist)
{
    // Each ordered-scope row must cover at least one real file, and a
    // row naming a function must find a definition of it there, so a
    // rename fails here instead of leaving a row that guards nothing.
    std::vector<std::string> files = mdp::lint::discoverFiles(kRoot);
    for (const mdp::lint::OrderedScope &row :
         mdp::lint::orderedScopes()) {
        size_t in_scope = 0, defs = 0;
        for (const std::string &f : files) {
            if (!row.contains(f))
                continue;
            ++in_scope;
            if (!row.function)
                continue;
            std::ifstream in(fs::path(kRoot) / f);
            std::ostringstream text;
            text << in.rdbuf();
            std::vector<mdp::lint::Token> code =
                mdp::lint::codeTokens(mdp::lint::lex(text.str()));
            for (const mdp::lint::FunctionDef &fd :
                 mdp::lint::functionDefs(code))
                if (code[fd.params_open - 1].spelling == row.function)
                    ++defs;
        }
        EXPECT_GT(in_scope, 0u) << "no file in scope of " << row.where;
        if (row.function) {
            EXPECT_GT(defs, 0u)
                << "no definition of " << row.function << " in scope";
        }
    }
}

TEST(LintCore, ExpectedGuardDerivation)
{
    EXPECT_EQ(mdp::lint::expectedGuard("src/base/random.hh"),
              "MDP_BASE_RANDOM_HH");
    EXPECT_EQ(mdp::lint::expectedGuard("src/mdp/ddc.hh"),
              "MDP_MDP_DDC_HH");
    EXPECT_EQ(mdp::lint::expectedGuard("bench/bench_common.hh"),
              "MDP_BENCH_BENCH_COMMON_HH");
    EXPECT_EQ(mdp::lint::expectedGuard("tools/lint_core.hh"),
              "MDP_TOOLS_LINT_CORE_HH");
}

TEST(LintCore, HeaderDeclarationFires)
{
    // The ban is on the type, so a header's own declaration fires and
    // a walk over the container in another file needs no tracking.
    std::vector<mdp::lint::SourceFile> sources = {
        {"src/mdp/widget.hh",
         "#ifndef MDP_MDP_WIDGET_HH\n"
         "#define MDP_MDP_WIDGET_HH\n"
         "#include <unordered_map>\n"
         "struct W { std::unordered_multimap<int, int> table; };\n"
         "#endif // MDP_MDP_WIDGET_HH\n"},
        {"src/mdp/widget.cc",
         "#include \"mdp/widget.hh\"\n"
         "int f(W &w) {\n"
         "    auto [lo, hi] = w.table.equal_range(1);\n"
         "    return lo == hi ? 0 : lo->second;\n"
         "}\n"},
    };
    std::vector<Diag> diags = mdp::lint::lintSources(sources);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/mdp/widget.hh");
    EXPECT_EQ(diags[0].line, 4);
    EXPECT_EQ(diags[0].rule, "ordered-scope");
}

TEST(LintCore, AllowAppliesToSameAndNextLineOnly)
{
    std::string body =
        "#include <unordered_map>\n"
        "// mdp-lint: allow(ordered-scope): probe-only table.\n"
        "std::unordered_map<int, int> a;\n"
        "std::unordered_map<int, int> b;\n"
        "std::unordered_map<int, int> c; "
        "// mdp-lint: allow(ordered-scope): probe-only table.\n";
    std::vector<Diag> diags =
        mdp::lint::lintSources({{"src/mdp/x.cc", body}});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 4) << "only the same and the next line "
                                   "are covered by a suppression";
}
