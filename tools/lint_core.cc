#include "lint_core.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "base/hash.hh"
#include "base/thread_pool.hh"
#include "lint/dataflow.hh"
#include "lint/include_graph.hh"
#include "lint/lexer.hh"
#include "lint/purity.hh"

namespace mdp::lint
{

namespace
{

namespace fs = std::filesystem;

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

/** The rule-scoping path: fixtures emulate the real tree layout. */
std::string
scopedPath(const std::string &path)
{
    const std::string prefix = "tests/lint_fixtures/";
    if (startsWith(path, prefix))
        return path.substr(prefix.size());
    return path;
}

std::string
dirOf(const std::string &path)
{
    size_t pos = path.find_last_of('/');
    return pos == std::string::npos ? "" : path.substr(0, pos);
}

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".h");
}

/** Directories whose containers feed simulation state or stats. */
bool
inModelDir(const std::string &scoped)
{
    static const char *const kDirs[] = {
        "src/mdp/",         "src/ooo/",   "src/window/",
        "src/multiscalar/", "src/trace/", "src/workloads/",
    };
    for (const char *d : kDirs)
        if (startsWith(scoped, d))
            return true;
    return false;
}

bool
inDeterministicScope(const std::string &scoped)
{
    return startsWith(scoped, "src/") || startsWith(scoped, "bench/");
}

/** Where the taint pass runs: the model directories plus serve/.
 *  harness/ and bench/ are report-only timing by design. */
bool
inTaintScope(const std::string &scoped)
{
    return inModelDir(scoped) || startsWith(scoped, "src/serve/");
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

// ---- suppression comments ------------------------------------------

struct AllowSet {
    /** (line, rule) pairs the file's comments suppress. */
    std::set<std::pair<int, std::string>> allowed;
    std::vector<Diag> malformed;

    bool
    allows(int line, const std::string &rule) const
    {
        return allowed.count({line, rule}) ||
               allowed.count({line - 1, rule});
    }
};

AllowSet
collectAllows(const std::string &path, const std::string &text)
{
    AllowSet out;
    // Composed so the marker never appears literally in this file
    // (collectAllows scans raw text, string literals included).
    const std::string marker = std::string("mdp-lint") + ": allow(";
    std::vector<std::string> lines = splitLines(text);
    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        size_t pos = line.find(marker);
        if (pos == std::string::npos)
            continue;
        int lineno = static_cast<int>(i + 1);
        size_t open = pos + marker.size() - 1;
        size_t close = line.find(')', open);
        if (close == std::string::npos) {
            out.malformed.push_back({path, lineno, "lint-allow",
                                     "unterminated " + marker +
                                         "...)"});
            continue;
        }
        std::string rule = trim(line.substr(open + 1,
                                            close - open - 1));
        std::string rest = trim(line.substr(close + 1));
        bool has_why = startsWith(rest, ":") &&
                       !trim(rest.substr(1)).empty();
        if (rule.empty() || !has_why) {
            out.malformed.push_back(
                {path, lineno, "lint-allow",
                 "suppression needs a rule and a justification: "
                 "// " +
                     marker + "<rule>): <why>"});
            continue;
        }
        out.allowed.insert({lineno, rule});
    }
    return out;
}

// ---- rule: nondet-source -------------------------------------------

void
checkNondet(const std::string &path, const std::vector<Token> &code,
            std::vector<Diag> &out)
{
    for (const std::string &token : nondetSourceTokens()) {
        size_t pos = 0;
        while ((pos = findIdentSeq(code, token, pos)) != SIZE_MAX) {
            out.push_back({path, code[pos].line, "nondet-source",
                           "nondeterminism source '" + token +
                               "'; all randomness must flow through "
                               "a seeded Pcg32 (base/random.hh) and "
                               "model code may not read wall "
                               "clocks"});
            ++pos;
        }
    }
}

// ---- rule: ptr-order -----------------------------------------------

void
checkPtrOrder(const std::string &path, const std::vector<Token> &code,
              std::vector<Diag> &out)
{
    static const char *const kOrdered[] = {
        "map", "multimap", "set", "multiset", "less", "greater",
    };
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        bool named = false;
        for (const char *name : kOrdered)
            named = named || isIdent(code[i], name);
        if (!named || !isPunct(code[i + 1], "<"))
            continue;
        size_t close = matchAngleTokens(code, i + 1);
        if (close == SIZE_MAX)
            continue;
        // First top-level template argument: up to the first comma
        // at angle depth 1.
        int depth = 0;
        size_t arg_end = close;
        for (size_t k = i + 1; k < close; ++k) {
            if (isPunct(code[k], "<"))
                ++depth;
            else if (isPunct(code[k], ">"))
                --depth;
            else if (depth == 1 && isPunct(code[k], ",")) {
                arg_end = k;
                break;
            }
        }
        if (arg_end <= i + 2 || !isPunct(code[arg_end - 1], "*"))
            continue;
        std::string arg;
        for (size_t k = i + 2; k < arg_end; ++k) {
            if (!arg.empty() && code[k].kind == Tok::Ident &&
                code[k - 1].kind == Tok::Ident)
                arg += ' ';
            arg += code[k].spelling;
        }
        out.push_back({path, code[i].line, "ptr-order",
                       "'" + code[i].spelling + "<" + arg +
                           ", ...>' orders by pointer value, which "
                           "varies run to run; key on a stable id"});
    }
}

// ---- rule: unordered-iter ------------------------------------------

/** Names declared as unordered containers, per scoped directory. */
using DeclMap = std::map<std::string, std::set<std::string>>;

std::set<std::string>
collectUnorderedDecls(const std::vector<Token> &code)
{
    std::set<std::string> names;
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if ((!isIdent(code[i], "unordered_map") &&
             !isIdent(code[i], "unordered_set")) ||
            !isPunct(code[i + 1], "<"))
            continue;
        size_t close = matchAngleTokens(code, i + 1);
        if (close == SIZE_MAX || close + 1 >= code.size())
            continue;
        size_t j = close + 1;
        while (j < code.size() &&
               (isPunct(code[j], "&") || isPunct(code[j], "*")))
            ++j;
        if (j >= code.size() || code[j].kind != Tok::Ident)
            continue;
        // Skip type-only uses: `...>::iterator`, casts, etc.
        if (j + 1 < code.size() && isPunct(code[j + 1], "::"))
            continue;
        names.insert(code[j].spelling);
    }
    return names;
}

/**
 * Invoke @p cb(token_idx, name, is_range_for) for every iteration
 * over a container in @p names: range-for sequences (idx is the ':')
 * and explicit .begin()/.cbegin() walks (idx is the container name).
 * Point lookups never match.
 */
template <typename Fn>
void
forEachContainerIteration(const std::vector<Token> &code,
                          const std::set<std::string> &names, Fn cb)
{
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        // Range-for whose sequence is one of the named containers.
        if (isIdent(code[i], "for") && isPunct(code[i + 1], "(")) {
            size_t close = matchGroup(code, i + 1);
            if (close == SIZE_MAX)
                continue;
            int depth = 0;
            size_t colon = SIZE_MAX;
            bool classic = false;
            for (size_t k = i + 1; k <= close; ++k) {
                if (isPunct(code[k], "("))
                    ++depth;
                else if (isPunct(code[k], ")"))
                    --depth;
                else if (depth == 1 && isPunct(code[k], ";"))
                    classic = true;
                else if (depth == 1 && colon == SIZE_MAX &&
                         isPunct(code[k], ":"))
                    colon = k;
            }
            if (classic || colon == SIZE_MAX)
                continue;
            // The sequence must be a plain member chain whose final
            // identifier is a declared container.
            bool plain = colon + 1 < close;
            std::string name;
            for (size_t k = colon + 1; k < close; ++k) {
                const Token &t = code[k];
                if (t.kind == Tok::Ident)
                    name = t.spelling;
                else if (!isPunct(t, ".") && !isPunct(t, "->"))
                    plain = false;
            }
            if (plain && !name.empty() && names.count(name))
                cb(colon, name, true);
            continue;
        }

        // Explicit iterator loops: NAME.begin() / NAME.cbegin().
        if (code[i].kind == Tok::Ident &&
            names.count(code[i].spelling) &&
            isPunct(code[i + 1], ".") && i + 3 < code.size() &&
            (isIdent(code[i + 2], "begin") ||
             isIdent(code[i + 2], "cbegin")) &&
            isPunct(code[i + 3], "(")) {
            cb(i, code[i].spelling, false);
        }
    }
}

void
checkUnorderedIter(const std::string &path,
                   const std::vector<Token> &code,
                   const std::set<std::string> &names,
                   std::vector<Diag> &out)
{
    forEachContainerIteration(
        code, names,
        [&](size_t idx, const std::string &name, bool range_for) {
            out.push_back(
                {path, code[idx].line, "unordered-iter",
                 std::string(range_for ? "range-for over"
                                       : "iterator walk over") +
                     " unordered container '" + name +
                     "': iteration order is implementation-defined; "
                     "use an ordered container or a sorted drain "
                     "(base/ordered.hh)"});
        });
}

// ---- rules scoped to one function's body ---------------------------

/**
 * Token ranges (body_open, body_close) of every *definition* of a
 * function named @p fn.  Declarations (a parameter list followed by
 * ';' before any '{') and call sites are skipped.
 */
std::vector<std::pair<size_t, size_t>>
functionBodies(const std::vector<Token> &code, const char *fn)
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (!isIdent(code[i], fn) || !isPunct(code[i + 1], "("))
            continue;
        size_t close = matchGroup(code, i + 1);
        if (close == SIZE_MAX)
            continue;
        // A definition has a '{' before the next ';' (qualifiers
        // like `const`/`noexcept`/a trailing return type may
        // intervene).
        size_t j = close + 1;
        while (j < code.size() && !isPunct(code[j], "{") &&
               !isPunct(code[j], ";"))
            ++j;
        if (j >= code.size() || !isPunct(code[j], "{"))
            continue;
        size_t end = matchGroup(code, j);
        if (end == SIZE_MAX)
            continue;
        out.push_back({j, end});
        i = j;
    }
    return out;
}

bool
inAnyBody(const std::vector<std::pair<size_t, size_t>> &bodies,
          size_t idx)
{
    for (const auto &[b, e] : bodies)
        if (idx > b && idx < e)
            return true;
    return false;
}

/**
 * The jump-target scan (any function named nextInterestingCycle in a
 * model directory) must visit its candidates in a platform-stable
 * order: its result steers which cycles are jumped over, so a
 * hash-order dependence there silently changes simulated results
 * between standard libraries even when every candidate is considered.
 */
void
checkFastForwardOrder(const std::string &path,
                      const std::vector<Token> &code,
                      const std::set<std::string> &names,
                      std::vector<Diag> &out)
{
    std::vector<std::pair<size_t, size_t>> bodies =
        functionBodies(code, "nextInterestingCycle");
    if (bodies.empty())
        return;
    forEachContainerIteration(
        code, names, [&](size_t idx, const std::string &name, bool) {
            if (!inAnyBody(bodies, idx))
                return;
            out.push_back(
                {path, code[idx].line, "fastforward-order",
                 "nextInterestingCycle iterates unordered container "
                 "'" +
                     name +
                     "': the skip-target scan steers which cycles "
                     "fast-forward jumps over, so candidates must be "
                     "visited in a platform-stable order; iterate a "
                     "vector or an index range instead"});
        });
}

// ---- rule: frontier-order ------------------------------------------

/**
 * The event-frontier scheduler and the interconnect hop models are
 * the determinism-critical core of the manycore scale-out: which PE
 * steps on which cycle, and how far a forwarded value travels, must
 * be pure platform-stable functions of simulated state.  Files
 * implementing them (basename containing "event_frontier" or
 * "interconnect", under src/) may not *contain* hash containers at
 * all -- stricter than unordered-iter, which only flags iteration and
 * does not cover src/base/ -- and wall-clock/random sources there are
 * called out under this rule as well as nondet-source, so suppressing
 * one cannot quietly waive the other.
 */
bool
isFrontierOrderScope(const std::string &scoped)
{
    if (!startsWith(scoped, "src/"))
        return false;
    std::string base = scoped.substr(scoped.find_last_of('/') + 1);
    return base.find("event_frontier") != std::string::npos ||
           base.find("interconnect") != std::string::npos;
}

void
checkFrontierOrder(const std::string &path,
                   const std::vector<Token> &code,
                   std::vector<Diag> &out)
{
    static const char *const kHashContainers[] = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };
    for (size_t i = 0; i < code.size(); ++i) {
        if (code[i].pp)
            continue;   // the include line itself is not a use
        for (const char *name : kHashContainers) {
            if (!isIdent(code[i], name))
                continue;
            out.push_back(
                {path, code[i].line, "frontier-order",
                 "hash container '" + code[i].spelling +
                     "' in frontier/interconnect code: event and hop "
                     "ordering must be platform-stable; use the "
                     "bucket wheel / min-heap / vectors with explicit "
                     "(t, id) ordering"});
        }
    }
    for (const std::string &token : nondetSourceTokens()) {
        size_t pos = 0;
        while ((pos = findIdentSeq(code, token, pos)) != SIZE_MAX) {
            out.push_back({path, code[pos].line, "frontier-order",
                           "nondeterminism source '" + token +
                               "' in frontier/interconnect code: park "
                               "times and hop counts must derive only "
                               "from simulated state"});
            ++pos;
        }
    }
}

// ---- rule: lockstep-blocking ---------------------------------------

/**
 * Calls that block (or can block) the calling thread.  Matched as
 * whole identifiers, so `writeSimReport` does not trip "write" but
 * `write(fd, ...)` and `file.read(...)` do.
 */
const char *const kBlockingTokens[] = {
    "accept",      "connect",   "epoll_wait",  "fdatasync", "fflush",
    "fgets",       "fopen",     "fprintf",     "fread",     "fscanf",
    "fsync",       "fwrite",    "getline",     "lock",      "lock_guard",
    "nanosleep",   "open",      "poll",        "pread",     "printf",
    "pwrite",      "read",      "recv",        "recvfrom",  "recvmsg",
    "scoped_lock", "select",    "send",        "sendmsg",   "sendto",
    "sleep",       "sleep_for", "sleep_until", "system",
    "unique_lock", "usleep",    "wait",        "waitpid",   "write",
};

/**
 * The evaluator's lane loop (any function named runLane under
 * src/serve/) is the served simulation path: it builds, runs and
 * finishes one lane, and a shard runs its lanes through it back to
 * back.  One blocking call there stalls that lane and every lane
 * queued behind it, and unordered-container iteration there leaks
 * hash order into lane results.
 */
void
checkLockstepBlocking(const std::string &path,
                      const std::vector<Token> &code,
                      const std::set<std::string> &names,
                      std::vector<Diag> &out)
{
    std::vector<std::pair<size_t, size_t>> bodies =
        functionBodies(code, "runLane");
    if (bodies.empty())
        return;

    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != Tok::Ident || !inAnyBody(bodies, i))
            continue;
        bool blocking = false;
        for (const char *token : kBlockingTokens)
            blocking = blocking || code[i].spelling == token;
        // Only calls: the token must be followed by '(' or be a
        // lock type instantiated as `lock_guard<...> g(...)`.
        if (!blocking || (!isPunct(code[i + 1], "(") &&
                          !isPunct(code[i + 1], "<")))
            continue;
        out.push_back(
            {path, code[i].line, "lockstep-blocking",
             "'" + code[i].spelling +
                 "' in runLane: the served simulation path must "
                 "never block; one stalled call holds back every "
                 "lane behind it -- do I/O and locking in the "
                 "completion callback"});
    }

    forEachContainerIteration(
        code, names, [&](size_t idx, const std::string &name, bool) {
            if (!inAnyBody(bodies, idx))
                return;
            out.push_back(
                {path, code[idx].line, "lockstep-blocking",
                 "runLane iterates unordered container '" + name +
                     "': hash order would leak into lane results; "
                     "keep the simulation path on vectors and index "
                     "ranges"});
        });
}

// ---- rules: header-guard, using-namespace-header -------------------

void
checkHeader(const std::string &path, const std::string &scoped,
            const std::vector<Token> &code, std::vector<Diag> &out)
{
    std::string expected = expectedGuard(scoped);

    size_t pragma_line = 0;
    std::string guard;
    int guard_line = 0;
    bool has_define = false;
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (!code[i].pp || code[i].kind != Tok::Ident)
            continue;
        if (code[i].spelling == "pragma" &&
            isIdent(code[i + 1], "once") && pragma_line == 0) {
            pragma_line = static_cast<size_t>(code[i].line);
        } else if (code[i].spelling == "ifndef" && guard.empty() &&
                   code[i + 1].kind == Tok::Ident) {
            guard = code[i + 1].spelling;
            guard_line = code[i + 1].line;
        } else if (code[i].spelling == "define" &&
                   isIdent(code[i + 1], expected.c_str())) {
            has_define = true;
        }
    }

    if (pragma_line != 0)
        out.push_back({path, static_cast<int>(pragma_line),
                       "header-guard",
                       "#pragma once; repo convention is an include "
                       "guard named " +
                           expected});
    if (guard.empty()) {
        if (pragma_line == 0)
            out.push_back({path, 1, "header-guard",
                           "missing include guard " + expected});
    } else if (guard != expected) {
        out.push_back({path, guard_line, "header-guard",
                       "include guard '" + guard + "' should be " +
                           expected});
    } else if (!has_define) {
        out.push_back({path, guard_line, "header-guard",
                       "#ifndef " + expected +
                           " has no matching #define"});
    }

    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (isIdent(code[i], "using") &&
            isIdent(code[i + 1], "namespace")) {
            out.push_back({path, code[i].line,
                           "using-namespace-header",
                           "'using namespace' in a header leaks into "
                           "every includer; qualify names instead"});
        }
    }
}

// ---- rule: bench-discipline ----------------------------------------

void
checkBench(const std::string &path, const std::vector<Token> &code,
           const std::vector<IncludeEdge> &includes,
           std::vector<Diag> &out)
{
    for (const IncludeEdge &e : includes)
        if (e.path == "benchmark/benchmark.h")
            return; // google-benchmark microbench, not a shape bench

    bool cached = false, runner = false, finish = false;
    for (const Token &t : code) {
        cached = cached || isIdent(t, "cachedContext");
        runner = runner || isIdent(t, "ExperimentRunner");
        finish = finish || isIdent(t, "finishBench");
    }
    if (!cached && !runner)
        out.push_back({path, 1, "bench-discipline",
                       "bench acquires no workload via "
                       "cachedContext()/ExperimentRunner; shape "
                       "benches must share the process-wide context "
                       "cache"});
    if (!finish)
        out.push_back({path, 1, "bench-discipline",
                       "bench never calls finishBench(); shape "
                       "verdicts and JSON artifacts would be lost"});

    // Direct context construction bypasses the trace cache.
    for (size_t i = 0; i + 2 < code.size(); ++i) {
        if (isIdent(code[i], "WorkloadContext") &&
            code[i + 1].kind == Tok::Ident &&
            isPunct(code[i + 2], "(")) {
            out.push_back(
                {path, code[i].line, "bench-discipline",
                 "direct WorkloadContext construction bypasses the "
                 "trace cache; use cachedContext()/ExperimentRunner "
                 "or justify with an allow"});
        }
    }
}

// ---- the per-file pipeline -----------------------------------------

/** Facts extracted from one file, a pure function of its content. */
struct FileFacts {
    std::vector<IncludeEdge> includes;
    std::set<std::string> unordered_names;
    std::vector<ClassFact> classes;
    AllowSet allows;
    std::vector<Diag> local;  ///< diags needing no cross-file context
};

FileFacts
localPass(const std::string &path, const std::string &text,
          const std::vector<Token> &code)
{
    FileFacts f;
    std::string scoped = scopedPath(path);
    f.includes = collectIncludes(code);
    f.unordered_names = collectUnorderedDecls(code);
    f.classes = collectClassFacts(code);
    f.allows = collectAllows(path, text);

    if (inDeterministicScope(scoped)) {
        checkNondet(path, code, f.local);
        checkPtrOrder(path, code, f.local);
    }
    if (isHeaderPath(scoped))
        checkHeader(path, scoped, code, f.local);
    std::string base = scoped.substr(scoped.find_last_of('/') + 1);
    if (startsWith(scoped, "bench/") && startsWith(base, "bench_") &&
        endsWith(base, ".cc"))
        checkBench(path, code, f.includes, f.local);
    if (isFrontierOrderScope(scoped))
        checkFrontierOrder(path, code, f.local);
    return f;
}

/** Cross-file inputs to the context pass, shared by every file. */
struct BatchContext {
    DeclMap decls;  ///< unordered names per scoped directory
    std::map<std::string, std::vector<std::string>> bases_of;
    uint64_t classmap_fnv = 0;
};

uint64_t
contextKey(const BatchContext &ctx, const std::string &scoped)
{
    Fnv1a h;
    h.str(scoped);
    auto it = ctx.decls.find(dirOf(scoped));
    if (it != ctx.decls.end())
        for (const std::string &n : it->second)
            h.str(n);
    h.value<uint64_t>(ctx.classmap_fnv);
    return h.digest();
}

std::vector<Diag>
contextPass(const std::string &path, const std::vector<Token> &code,
            const FileFacts &facts, const BatchContext &ctx)
{
    std::vector<Diag> out;
    std::string scoped = scopedPath(path);
    static const std::set<std::string> kNoNames;
    auto decl_it = ctx.decls.find(dirOf(scoped));
    const std::set<std::string> &names =
        decl_it == ctx.decls.end() ? kNoNames : decl_it->second;

    if (inModelDir(scoped)) {
        checkUnorderedIter(path, code, names, out);
        checkFastForwardOrder(path, code, names, out);
    }
    if (startsWith(scoped, "src/serve/"))
        checkLockstepBlocking(path, code, names, out);
    if (inTaintScope(scoped)) {
        for (const TaintDiag &td : checkNondetTaint(code, names))
            out.push_back({path, td.line, "nondet-taint", td.msg});
    }
    if (startsWith(scoped, "src/")) {
        for (const ClassFact &cf : facts.classes) {
            if (cf.findings.empty() ||
                !resolvesToPolicy(cf.name, ctx.bases_of))
                continue;
            for (const ClassFinding &cfind : cf.findings)
                out.push_back({path, cfind.line, cfind.rule,
                               "in policy class '" + cf.name + "': " +
                                   cfind.msg});
        }
    }
    return out;
}

// ---- the on-disk result cache --------------------------------------

struct CacheEntry {
    uint64_t content_fnv = 0;
    FileFacts facts;
    uint64_t ctx_fnv = 0;
    bool has_ctx = false;
    std::vector<Diag> ctx_diags;
};

std::string
escapeMsg(const std::string &s)
{
    std::string out;
    for (char c : s)
        out += c == '\n' ? ' ' : c;
    return out;
}

std::map<std::string, CacheEntry>
loadCache(const std::string &path)
{
    std::map<std::string, CacheEntry> cache;
    std::ifstream in(path);
    if (!in)
        return cache;
    std::string line;
    if (!std::getline(in, line) || line != "mdp_lint_cache v1")
        return cache;
    CacheEntry *cur = nullptr;
    std::string cur_path;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "file") {
            std::string fnv_hex;
            ls >> fnv_hex >> cur_path;
            cur = &cache[cur_path];
            cur->content_fnv = std::stoull(fnv_hex, nullptr, 16);
        } else if (cur == nullptr) {
            continue;
        } else if (tag == "i") {
            IncludeEdge e;
            std::string kind;
            ls >> e.line >> kind;
            e.angled = kind == "a";
            std::getline(ls >> std::ws, e.path);
            cur->facts.includes.push_back(std::move(e));
        } else if (tag == "u") {
            std::string name;
            ls >> name;
            cur->facts.unordered_names.insert(name);
        } else if (tag == "c") {
            ClassFact cf;
            ls >> cf.name;
            std::string b;
            while (ls >> b)
                cf.bases.push_back(b);
            cur->facts.classes.push_back(std::move(cf));
        } else if (tag == "f" && !cur->facts.classes.empty()) {
            ClassFinding cfind;
            ls >> cfind.line >> cfind.rule;
            std::getline(ls >> std::ws, cfind.msg);
            cur->facts.classes.back().findings.push_back(
                std::move(cfind));
        } else if (tag == "a") {
            int l;
            std::string rule;
            ls >> l >> rule;
            cur->facts.allows.allowed.insert({l, rule});
        } else if (tag == "m" || tag == "d" || tag == "y") {
            Diag d;
            d.file = cur_path;
            ls >> d.line >> d.rule;
            std::getline(ls >> std::ws, d.msg);
            if (tag == "m")
                cur->facts.allows.malformed.push_back(std::move(d));
            else if (tag == "d")
                cur->facts.local.push_back(std::move(d));
            else
                cur->ctx_diags.push_back(std::move(d));
        } else if (tag == "x") {
            std::string fnv_hex;
            ls >> fnv_hex;
            cur->ctx_fnv = std::stoull(fnv_hex, nullptr, 16);
            cur->has_ctx = true;
        }
    }
    return cache;
}

void
saveCache(const std::string &path,
          const std::map<std::string, CacheEntry> &cache)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return;  // caching is best-effort; a read-only tree is fine
    out << "mdp_lint_cache v1\n";
    for (const auto &[file, e] : cache) {
        out << "file " << hashHex(e.content_fnv) << ' ' << file
            << '\n';
        for (const IncludeEdge &inc : e.facts.includes)
            out << "i " << inc.line << ' '
                << (inc.angled ? 'a' : 'q') << ' ' << inc.path
                << '\n';
        for (const std::string &n : e.facts.unordered_names)
            out << "u " << n << '\n';
        for (const ClassFact &cf : e.facts.classes) {
            out << "c " << cf.name;
            for (const std::string &b : cf.bases)
                out << ' ' << b;
            out << '\n';
            for (const ClassFinding &cfind : cf.findings)
                out << "f " << cfind.line << ' ' << cfind.rule << ' '
                    << escapeMsg(cfind.msg) << '\n';
        }
        for (const auto &[l, rule] : e.facts.allows.allowed)
            out << "a " << l << ' ' << rule << '\n';
        for (const Diag &d : e.facts.allows.malformed)
            out << "m " << d.line << ' ' << d.rule << ' '
                << escapeMsg(d.msg) << '\n';
        for (const Diag &d : e.facts.local)
            out << "d " << d.line << ' ' << d.rule << ' '
                << escapeMsg(d.msg) << '\n';
        if (e.has_ctx) {
            out << "x " << hashHex(e.ctx_fnv) << '\n';
            for (const Diag &d : e.ctx_diags)
                out << "y " << d.line << ' ' << d.rule << ' '
                    << escapeMsg(d.msg) << '\n';
        }
        out << "end\n";
    }
}

// ---- whole-batch analysis ------------------------------------------

std::vector<Diag>
analyzeSources(const std::vector<SourceFile> &sources, unsigned jobs,
               const std::string &cache_path)
{
    std::map<std::string, CacheEntry> cache;
    if (!cache_path.empty())
        cache = loadCache(cache_path);

    struct PerFile {
        uint64_t content_fnv = 0;
        FileFacts facts;
        std::vector<Token> code;  ///< empty on a facts cache hit
        bool from_cache = false;
        uint64_t ctx_key = 0;
        std::vector<Diag> ctx_diags;
    };
    std::vector<PerFile> per(sources.size());

    ThreadPool pool(jobs);

    // Phase 1: per-file facts and local diags (pure function of
    // content; served from the cache when the content hash matches).
    for (size_t i = 0; i < sources.size(); ++i) {
        pool.submit([&, i] {
            const SourceFile &src = sources[i];
            PerFile &pf = per[i];
            pf.content_fnv =
                fnv1a(src.text.data(), src.text.size());
            auto it = cache.find(src.path);
            if (it != cache.end() &&
                it->second.content_fnv == pf.content_fnv) {
                pf.facts = it->second.facts;
                pf.from_cache = true;
                return;
            }
            pf.code = codeTokens(lex(src.text));
            pf.facts = localPass(src.path, src.text, pf.code);
        });
    }
    pool.wait();

    // Phase 2 (serial): cross-file context.
    BatchContext ctx;
    std::map<std::string, std::vector<IncludeEdge>> includes_of;
    std::map<std::string, std::string> original_of;
    for (size_t i = 0; i < sources.size(); ++i) {
        std::string scoped = scopedPath(sources[i].path);
        ctx.decls[dirOf(scoped)].insert(
            per[i].facts.unordered_names.begin(),
            per[i].facts.unordered_names.end());
        includes_of[scoped] = per[i].facts.includes;
        original_of[scoped] = sources[i].path;
        for (const ClassFact &cf : per[i].facts.classes) {
            auto &bases = ctx.bases_of[cf.name];
            bases.insert(bases.end(), cf.bases.begin(),
                         cf.bases.end());
        }
    }
    Fnv1a ch;
    for (const auto &[name, bases] : ctx.bases_of) {
        ch.str(name);
        for (const std::string &b : bases)
            ch.str(b);
    }
    ctx.classmap_fnv = ch.digest();

    // Phase 3: context diags (cache-keyed by content + context).
    for (size_t i = 0; i < sources.size(); ++i) {
        pool.submit([&, i] {
            const SourceFile &src = sources[i];
            PerFile &pf = per[i];
            pf.ctx_key = contextKey(ctx, scopedPath(src.path));
            auto it = cache.find(src.path);
            if (pf.from_cache && it != cache.end() &&
                it->second.has_ctx &&
                it->second.ctx_fnv == pf.ctx_key) {
                pf.ctx_diags = it->second.ctx_diags;
                return;
            }
            if (pf.code.empty() && !src.text.empty())
                pf.code = codeTokens(lex(src.text));
            pf.ctx_diags =
                contextPass(src.path, pf.code, pf.facts, ctx);
        });
    }
    pool.wait();

    // Phase 4 (serial): the include graph runs over the whole batch
    // and is recomputed every time (it is cheap and global).
    std::map<std::string, std::vector<Diag>> graph_diags;
    for (const GraphDiag &gd :
         checkIncludeGraph(includes_of, defaultLayers())) {
        const std::string &orig = original_of[gd.file];
        graph_diags[orig].push_back(
            {orig, gd.line, gd.rule, gd.msg});
    }

    // Phase 5: apply suppressions, merge, sort; refresh the cache.
    std::vector<Diag> all;
    for (size_t i = 0; i < sources.size(); ++i) {
        const SourceFile &src = sources[i];
        PerFile &pf = per[i];
        std::vector<Diag> mine = pf.facts.local;
        mine.insert(mine.end(), pf.ctx_diags.begin(),
                    pf.ctx_diags.end());
        auto git = graph_diags.find(src.path);
        if (git != graph_diags.end())
            mine.insert(mine.end(), git->second.begin(),
                        git->second.end());
        for (Diag &d : mine)
            if (!pf.facts.allows.allows(d.line, d.rule))
                all.push_back(std::move(d));
        for (const Diag &d : pf.facts.allows.malformed)
            all.push_back(d);

        if (!cache_path.empty()) {
            CacheEntry &e = cache[src.path];
            e.content_fnv = pf.content_fnv;
            e.facts = pf.facts;
            e.ctx_fnv = pf.ctx_key;
            e.has_ctx = true;
            e.ctx_diags = pf.ctx_diags;
        }
    }
    if (!cache_path.empty())
        saveCache(cache_path, cache);

    std::sort(all.begin(), all.end(),
              [](const Diag &a, const Diag &b) {
                  return std::tie(a.file, a.line, a.rule, a.msg) <
                         std::tie(b.file, b.line, b.rule, b.msg);
              });
    all.erase(std::unique(all.begin(), all.end(),
                          [](const Diag &a, const Diag &b) {
                              return std::tie(a.file, a.line, a.rule,
                                              a.msg) ==
                                     std::tie(b.file, b.line, b.rule,
                                              b.msg);
                          }),
              all.end());
    return all;
}

std::vector<SourceFile>
readSources(const std::string &root,
            const std::vector<std::string> &rel_paths, bool &ok)
{
    ok = true;
    std::vector<SourceFile> sources;
    sources.reserve(rel_paths.size());
    for (const std::string &rel : rel_paths) {
        std::ifstream in(fs::path(root) / rel, std::ios::binary);
        if (!in) {
            ok = false;
            sources.clear();
            sources.push_back({rel, ""});
            return sources;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        sources.push_back({rel, buf.str()});
    }
    return sources;
}

} // namespace

// ---- public API -----------------------------------------------------

std::vector<RuleDoc>
ruleDocs()
{
    return {
        {"bench-discipline",
         "bench/bench_*.cc must use cachedContext()/ExperimentRunner "
         "and finish through finishBench()"},
        {"fastforward-order",
         "no unordered-container iteration inside "
         "nextInterestingCycle: the skip-target scan must be "
         "platform-stable"},
        {"frontier-order",
         "no hash containers or wall-clock/random sources in "
         "event-frontier/interconnect files: the manycore "
         "scheduler's event and hop ordering must be "
         "platform-stable"},
        {"header-guard",
         "headers carry the canonical MDP_<PATH>_HH include guard "
         "(no #pragma once)"},
        {"include-cycle",
         "the repo's #include graph must stay acyclic"},
        {"layering",
         "includes must respect tools/lint/layers.txt: no src/ "
         "directory may include a higher layer"},
        {"lint-allow",
         "a suppression comment must name a rule and give a "
         "justification"},
        {"lockstep-blocking",
         "no blocking calls or unordered iteration inside runLane "
         "(the served simulation path) under src/serve/"},
        {"nondet-source",
         "banned nondeterminism sources (wall clocks, random "
         "engines, pids, thread ids) in src/ and bench/"},
        {"nondet-taint",
         "a value derived from a nondet source (clock, "
         "reinterpret_cast of a pointer, unordered iteration) must "
         "not reach model or report state"},
        {"policy-ctx-escape",
         "DependencePolicy code must not retain the per-call "
         "LoadIssueContext (no members of that type, no address-of "
         "a context parameter)"},
        {"policy-static-state",
         "DependencePolicy classes must not hold mutable static or "
         "thread_local state (lockstep lanes share the object)"},
        {"ptr-order",
         "ordered containers and comparators must not key on "
         "pointer values (std::map<T *, ...>, std::less<T *>)"},
        {"unordered-iter",
         "no iteration over unordered containers in the model "
         "directories; order leaks into state and reports"},
        {"using-namespace-header",
         "no `using namespace` in headers"},
    };
}

std::vector<std::string>
ruleNames()
{
    std::vector<std::string> names;
    for (const RuleDoc &r : ruleDocs())
        names.push_back(r.id);
    return names;
}

std::string
expectedGuard(const std::string &rel_path)
{
    std::string p = rel_path;
    if (startsWith(p, "src/"))
        p = p.substr(4);
    std::string guard = "MDP_";
    for (char c : p) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    return guard;
}

std::string
codeView(const std::string &text)
{
    // Token-accurate masking: everything inside comments and
    // string/char literals becomes spaces (newlines survive so line
    // numbers hold), the rest passes through.
    std::string out = text;
    for (const Token &t : lex(text)) {
        if (t.kind != Tok::Comment && t.kind != Tok::Str &&
            t.kind != Tok::Char)
            continue;
        size_t from = t.begin, to = t.end;
        if (t.kind == Tok::Str || t.kind == Tok::Char) {
            // Keep the delimiters, blank the contents.
            ++from;
            if (to > from && (text[to - 1] == '"' ||
                              text[to - 1] == '\''))
                --to;
        }
        for (size_t i = from; i < to && i < out.size(); ++i)
            if (out[i] != '\n')
                out[i] = ' ';
    }
    return out;
}

std::vector<Diag>
lintSources(const std::vector<SourceFile> &sources)
{
    return analyzeSources(sources, 1, "");
}

std::vector<std::string>
discoverFiles(const std::string &root)
{
    static const char *const kDirs[] = {"src", "bench", "tools",
                                        "tests", "examples"};
    static const char *const kExts[] = {".cc", ".hh", ".h", ".cpp"};
    std::vector<std::string> out;
    for (const char *dir : kDirs) {
        fs::path base = fs::path(root) / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            std::string rel =
                fs::relative(entry.path(), root).generic_string();
            if (rel.find("lint_fixtures") != std::string::npos)
                continue;
            if (rel.find("/build") != std::string::npos ||
                startsWith(rel, "build"))
                continue;
            bool keep = false;
            for (const char *ext : kExts)
                keep = keep || endsWith(rel, ext);
            if (keep)
                out.push_back(rel);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Diag>
lintPaths(const std::string &root,
          const std::vector<std::string> &rel_paths)
{
    bool ok = false;
    std::vector<SourceFile> sources = readSources(root, rel_paths, ok);
    if (!ok)
        return {{sources[0].path, 0, "lint-allow",
                 "cannot read file (bad path?)"}};
    return analyzeSources(sources, 1, "");
}

std::vector<Diag>
lintTree(const std::string &root,
         const std::vector<std::string> &rel_paths,
         const LintOptions &options)
{
    bool ok = false;
    std::vector<SourceFile> sources = readSources(root, rel_paths, ok);
    if (!ok)
        return {{sources[0].path, 0, "lint-allow",
                 "cannot read file (bad path?)"}};
    unsigned jobs = options.jobs != 0 ? options.jobs
                                      : ThreadPool::defaultJobs();
    return analyzeSources(sources, jobs, options.cache_path);
}

std::vector<Diag>
filterRules(const std::vector<Diag> &diags,
            const std::vector<std::string> &only,
            const std::vector<std::string> &exclude)
{
    std::set<std::string> keep(only.begin(), only.end());
    std::set<std::string> drop(exclude.begin(), exclude.end());
    std::vector<Diag> out;
    for (const Diag &d : diags) {
        if (!keep.empty() && !keep.count(d.rule))
            continue;
        if (drop.count(d.rule))
            continue;
        out.push_back(d);
    }
    return out;
}

std::string
writeBaseline(const std::vector<Diag> &diags)
{
    std::map<std::pair<std::string, std::string>, int> counts;
    for (const Diag &d : diags)
        ++counts[{d.file, d.rule}];
    std::ostringstream out;
    out << "# mdp_lint baseline: \"<count> <rule> <file>\" findings "
           "accepted as existing debt\n";
    for (const auto &[key, n] : counts)
        out << n << ' ' << key.second << ' ' << key.first << '\n';
    return out.str();
}

std::vector<Diag>
applyBaseline(const std::vector<Diag> &diags,
              const std::string &baseline_text)
{
    std::map<std::pair<std::string, std::string>, int> budget;
    std::istringstream in(baseline_text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        int n = 0;
        std::string rule, file;
        if (ls >> n >> rule >> file)
            budget[{file, rule}] += n;
    }
    std::vector<Diag> out;
    for (const Diag &d : diags) {
        auto it = budget.find({d.file, d.rule});
        if (it != budget.end() && it->second > 0) {
            --it->second;
            continue;
        }
        out.push_back(d);
    }
    return out;
}

} // namespace mdp::lint
