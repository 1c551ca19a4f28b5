/**
 * @file
 * Core of mdp_lint, the repo-specific determinism and hygiene linter.
 *
 * The linter is an analysis pipeline, not a line scanner: every file
 * is lexed into a comment-, string-, raw-string- and
 * preprocessor-aware token stream (lint/lexer.hh), every rule matches
 * identifiers and punctuators in that stream, and an include-graph
 * pass enforces the layering spec (lint/include_graph.hh,
 * tools/lint/layers.txt).  Nondeterminism is banned where it is
 * written (`nondet-source`: clocks, random engines, pids, thread ids,
 * a pointer cast to an integer), so no value derived from it can
 * exist to be tracked.  Rule ids and their one-line docs live in
 * ruleDocs(); `mdp_lint --list-rules` prints them.  The
 * `ordered-scope` rule is driven by one table, orderedScopes(): each
 * row names a scope and what code in it may not do.
 *
 * Suppression: a `// mdp-lint:` comment reading
 * `allow(<rule>): <justification>` silences <rule> on its own line
 * and the following line.  The justification is mandatory and <rule>
 * must be a known id; any other allow is itself a diagnostic.
 *
 * Paths under tests/lint_fixtures/ are scoped as if that prefix were
 * absent, so fixtures exercise path-scoped rules (e.g. a fixture at
 * tests/lint_fixtures/src/mdp/x.cc is linted as src/mdp/x.cc).
 *
 * lintSources() lints in-memory files and lintPaths() reads them from
 * disk first; both run one serial pass over the whole batch.
 */

#ifndef MDP_TOOLS_LINT_CORE_HH
#define MDP_TOOLS_LINT_CORE_HH

#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace mdp::lint
{

/** One finding: file, 1-based line, rule id, human message. */
struct Diag {
    std::string file;
    int line = 0;
    std::string rule;
    std::string msg;
};

/** An in-memory source file (path is root-relative, '/'-separated). */
struct SourceFile {
    std::string path;
    std::string text;
};

/** A rule id and its one-line documentation. */
struct RuleDoc {
    std::string id;
    std::string doc;
};

/** Every rule the linter can emit, sorted by id, with docs. */
std::vector<RuleDoc> ruleDocs();

/** The rule ids the linter can emit (sorted). */
std::vector<std::string> ruleNames();

/** What an ordered-scope row forbids (bit flags). */
enum OrderedForbid : unsigned {
    /** Naming a std hash container type at all. */
    kHashContainer = 1u,
    /** A call that can block the calling thread. */
    kBlockingCall = 2u,
};

/**
 * One row of the ordered-scope table: code in files whose scoped
 * path satisfies @c contains -- restricted to the bodies of
 * @c function when it is set -- may not do what @c forbid names.
 */
struct OrderedScope {
    /** How diagnostics name the scope. */
    const char *where;
    bool (*contains)(const std::string &scoped_path);
    /** Only definitions of this function; nullptr = whole file. */
    const char *function;
    unsigned forbid;
    /** Why the scope must stay ordered, and what to do instead. */
    const char *why;
};

/** The ordered-scope rule's table. */
const std::vector<OrderedScope> &orderedScopes();

/** Canonical include guard for a root-relative header path. */
std::string expectedGuard(const std::string &rel_path);

/**
 * One function definition located in a token stream: the parameter
 * list parens and the body braces (all four are token indexes into
 * the stream scanned).  A body qualifies when a matched `(...)`
 * preceded by an identifier (not if/for/while/switch/catch) is
 * followed -- across cv/noexcept/override, a trailing return type, or
 * a constructor init list -- by a matched `{...}`.
 */
struct FunctionDef {
    size_t params_open = 0, params_close = 0;
    size_t body_open = 0, body_close = 0;
};

/** Every function definition in @p code, outermost only (a lambda or
 *  local class inside a body belongs to that body). */
std::vector<FunctionDef> functionDefs(const std::vector<Token> &code);

/**
 * Lint a set of sources as one unit.  The include graph is built
 * across the whole set.  Diagnostics come back sorted by (file, line,
 * rule).
 */
std::vector<Diag> lintSources(const std::vector<SourceFile> &sources);

/**
 * Discover the default lint set under a repo root: every .cc/.hh/.h/
 * .cpp file in src/, bench/, tools/, tests/, and examples/, skipping
 * tests/lint_fixtures (deliberate violations) and build trees.
 * Returned paths are root-relative and sorted.
 */
std::vector<std::string> discoverFiles(const std::string &root);

/** The outcome of linting files read from disk. */
struct LintRun {
    std::vector<Diag> diags;
    /** The first path that could not be read; when set, nothing was
     *  linted and diags is empty. */
    std::string unreadable;
};

/** Read the given root-relative paths and lint them as one unit. */
LintRun lintPaths(const std::string &root,
                  const std::vector<std::string> &rel_paths);

} // namespace mdp::lint

#endif // MDP_TOOLS_LINT_CORE_HH
