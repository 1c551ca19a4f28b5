#include "lint_core.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "lint/include_graph.hh"

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

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".h");
}

bool
inDeterministicScope(const std::string &scoped)
{
    return startsWith(scoped, "src/") || startsWith(scoped, "bench/");
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
        std::vector<std::string> known = ruleNames();
        if (std::find(known.begin(), known.end(), rule) ==
            known.end()) {
            out.malformed.push_back(
                {path, lineno, "lint-allow",
                 "suppression names unknown rule '" + rule +
                     "'; mdp_lint --list-rules prints the known "
                     "ids"});
            continue;
        }
        out.allowed.insert({lineno, rule});
    }
    return out;
}

template <size_t N>
bool
isOneOf(const std::string &s, const char *const (&names)[N])
{
    for (const char *name : names)
        if (s == name)
            return true;
    return false;
}

// ---- rule: nondet-source -------------------------------------------

/** Identifier sequences whose appearance is a nondeterminism source
 *  ("std::rand" form, as findIdentSeq matches them). */
const char *const kNondetSources[] = {
    "std::rand",
    "srand",
    "random_device",
    "mt19937",
    "mt19937_64",
    "minstd_rand",
    "default_random_engine",
    "ranlux24",
    "ranlux48",
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "gettimeofday",
    "clock_gettime",
    "timespec_get",
    "getpid",
    "this_thread::get_id",
};

/** Integer types whose reinterpret_cast target makes pointer
 *  identity observable. */
const char *const kIntTargets[] = {
    "intptr_t", "uintptr_t", "size_t",   "ptrdiff_t",
    "uint64_t", "int64_t",   "uint32_t", "int32_t",
    "long",     "int",       "unsigned", "short",
};

void
checkNondet(const std::string &path, const std::vector<Token> &code,
            std::vector<Diag> &out)
{
    for (const char *token : kNondetSources) {
        size_t pos = 0;
        while ((pos = findIdentSeq(code, token, pos)) != SIZE_MAX) {
            out.push_back({path, code[pos].line, "nondet-source",
                           std::string("nondeterminism source '") +
                               token +
                               "'; all randomness must flow through "
                               "a seeded Pcg32 (base/random.hh) and "
                               "model code may not read wall "
                               "clocks"});
            ++pos;
        }
    }
    // A pointer cast to an integer: the address, and so anything
    // hashed, keyed or ordered on it, varies run to run.
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (!isIdent(code[i], "reinterpret_cast") ||
            !isPunct(code[i + 1], "<"))
            continue;
        size_t close = matchAngleTokens(code, i + 1);
        if (close == SIZE_MAX)
            continue;
        std::string target;
        bool indirect = false;
        for (size_t k = i + 2; k < close; ++k) {
            indirect = indirect || isPunct(code[k], "*") ||
                       isPunct(code[k], "&") || isPunct(code[k], "&&");
            if (code[k].kind == Tok::Ident &&
                isOneOf(code[k].spelling, kIntTargets))
                target = code[k].spelling;
        }
        if (target.empty() || indirect)
            continue;
        out.push_back({path, code[i].line, "nondet-source",
                       "reinterpret_cast of a pointer to '" + target +
                           "' exposes its address, which varies run "
                           "to run; key on a stable id"});
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

// ---- rule: ordered-scope -------------------------------------------

const char *const kHashContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

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

bool
inSrc(const std::string &scoped)
{
    return startsWith(scoped, "src/");
}

bool
inHarnessDir(const std::string &scoped)
{
    return startsWith(scoped, "src/harness/");
}

void
checkOrderedScope(const std::string &path, const std::string &scoped,
                  const std::vector<Token> &code, std::vector<Diag> &out)
{
    for (const OrderedScope &row : orderedScopes()) {
        if (!row.contains(scoped))
            continue;
        std::vector<std::pair<size_t, size_t>> bodies;
        if (row.function)
            for (const FunctionDef &fd : functionDefs(code))
                if (isIdent(code[fd.params_open - 1], row.function))
                    bodies.push_back({fd.body_open, fd.body_close});
        auto covered = [&](size_t idx) {
            if (!row.function)
                return true;
            for (const auto &[b, e] : bodies)
                if (idx > b && idx < e)
                    return true;
            return false;
        };
        auto report = [&](size_t idx, const std::string &what) {
            out.push_back({path, code[idx].line, "ordered-scope",
                           what + " in " + row.where + ": " +
                               row.why});
        };

        for (size_t i = 0; i < code.size(); ++i) {
            const Token &t = code[i];
            // An #include line is not a use.
            if (t.kind != Tok::Ident || t.pp || !covered(i))
                continue;
            if ((row.forbid & kHashContainer) &&
                isOneOf(t.spelling, kHashContainers))
                report(i, "hash container '" + t.spelling + "'");
            // Only calls: the token must be followed by '(' or be a
            // lock type instantiated as `lock_guard<...> g(...)`.
            if ((row.forbid & kBlockingCall) &&
                isOneOf(t.spelling, kBlockingTokens) &&
                i + 1 < code.size() &&
                (isPunct(code[i + 1], "(") ||
                 isPunct(code[i + 1], "<")))
                report(i, "blocking call '" + t.spelling + "'");
        }
    }
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
           std::vector<Diag> &out)
{
    bool runner = false;
    for (const Token &t : code)
        runner = runner || isIdent(t, "ExperimentRunner");
    if (!runner)
        out.push_back({path, 1, "bench-discipline",
                       "table never runs its cells on an "
                       "ExperimentRunner; tables sweep through the one "
                       "engine"});

    // Direct context construction bypasses the trace cache.
    for (size_t i = 0; i + 2 < code.size(); ++i) {
        if (isIdent(code[i], "WorkloadContext") &&
            code[i + 1].kind == Tok::Ident &&
            isPunct(code[i + 2], "(")) {
            out.push_back(
                {path, code[i].line, "bench-discipline",
                 "direct WorkloadContext construction bypasses the "
                 "trace cache; use cachedContext() in the runner's "
                 "cells or justify with an allow"});
        }
    }
}

// ---- rules: policy-static-state, policy-ctx-escape -----------------

bool
runHas(const std::vector<Token> &code, size_t b, size_t e,
       const char *ident)
{
    for (size_t i = b; i < e; ++i)
        if (isIdent(code[i], ident))
            return true;
    return false;
}

/**
 * One statement run [b, e) (split at ';', '{' and '}') that declares
 * mutable static or thread_local data.  `static const`/`constexpr`
 * and static member functions are fine.
 */
void
checkStaticRun(const std::string &path, const std::vector<Token> &code,
               size_t b, size_t e, std::vector<Diag> &out)
{
    size_t at = b;
    while (at < e && !isIdent(code[at], "static") &&
           !isIdent(code[at], "thread_local"))
        ++at;
    if (at == e)
        return;
    // Judge the declarator only: an initializer may call anything.
    size_t cut = at;
    while (cut < e && !isPunct(code[cut], "="))
        ++cut;
    for (size_t i = at; i + 1 < cut; ++i)
        if (code[i].kind == Tok::Ident && isPunct(code[i + 1], "("))
            return; // a function declaration or definition
    if (runHas(code, b, cut, "const") || runHas(code, b, cut, "constexpr"))
        return;
    out.push_back({path, code[at].line, "policy-static-state",
                   "mutable " + code[at].spelling +
                       " data in predictor code: cells of one "
                       "ExperimentRunner or mdp_served batch share "
                       "the process, so it would couple their "
                       "results"});
}

/** Parameter names whose declared type mentions LoadIssueContext,
 *  scanned from a parameter list [open, close]. */
std::vector<std::string>
ctxParamNames(const std::vector<Token> &code, size_t open, size_t close)
{
    std::vector<std::string> names;
    size_t start = open + 1;
    int depth = 0;
    for (size_t i = open + 1; i <= close; ++i) {
        const Token &t = code[i];
        if (isPunct(t, "(") || isPunct(t, "<") || isPunct(t, "["))
            ++depth;
        else if (isPunct(t, ")") || isPunct(t, ">") || isPunct(t, "]"))
            --depth;
        if (i != close && !(depth == 0 && isPunct(t, ",")))
            continue;
        // One parameter [start, i); its name is the last identifier
        // before any default argument.
        size_t end = start;
        while (end < i && !isPunct(code[end], "="))
            ++end;
        if (runHas(code, start, end, "LoadIssueContext") && end > start &&
            code[end - 1].kind == Tok::Ident &&
            !isIdent(code[end - 1], "LoadIssueContext"))
            names.push_back(code[end - 1].spelling);
        start = i + 1;
    }
    return names;
}

/**
 * src/mdp/ holds every DependencePolicy and the sync units they
 * drive, so its code is held to the policy contract: no mutable
 * static state, and the per-call LoadIssueContext never outlives the
 * call -- no declaration outside a function body holds one, and no
 * function takes the address of its context parameter.
 */
void
checkPolicyCode(const std::string &path, const std::vector<Token> &code,
                std::vector<Diag> &out)
{
    const std::vector<FunctionDef> fns = functionDefs(code);
    auto inBody = [&](size_t idx) {
        for (const FunctionDef &fd : fns)
            if (idx > fd.body_open && idx < fd.body_close)
                return true;
        return false;
    };
    size_t start = 0;
    for (size_t k = 0; k <= code.size(); ++k) {
        if (k < code.size() && !isPunct(code[k], ";") &&
            !isPunct(code[k], "{") && !isPunct(code[k], "}"))
            continue;
        size_t b = start;
        start = k + 1;
        if (b >= k)
            continue;
        checkStaticRun(path, code, b, k, out);
        // A member or global holding the context.  Function
        // declarations (a paren) and the class's own head
        // (`class LoadIssueContext`) do not hold one.
        auto paren = [](const Token &t) { return isPunct(t, "("); };
        if (inBody(b) ||
            std::any_of(code.begin() + b, code.begin() + k, paren))
            continue;
        for (size_t m = b; m < k; ++m) {
            if (!isIdent(code[m], "LoadIssueContext") ||
                (m > b && (isIdent(code[m - 1], "class") ||
                           isIdent(code[m - 1], "struct"))))
                continue;
            out.push_back({path, code[m].line, "policy-ctx-escape",
                           "declaration retains LoadIssueContext: the "
                           "context is only valid for the duration of "
                           "the call"});
            break;
        }
    }
    for (const FunctionDef &fd : fns) {
        for (const std::string &ctx :
             ctxParamNames(code, fd.params_open, fd.params_close)) {
            for (size_t k = fd.body_open + 1; k + 1 < fd.body_close;
                 ++k) {
                if (!isPunct(code[k], "&") ||
                    !isIdent(code[k + 1], ctx.c_str()))
                    continue;
                // `a & ctx` is a binary op; address-of has no value
                // operand on its left.
                const Token &prev = code[k - 1];
                if (prev.kind == Tok::Ident || prev.kind == Tok::Number ||
                    isPunct(prev, ")") || isPunct(prev, "]"))
                    continue;
                out.push_back({path, code[k].line, "policy-ctx-escape",
                               "address of LoadIssueContext parameter '" +
                                   ctx +
                                   "' taken: the context must not "
                                   "outlive the call"});
            }
        }
    }
}

// ---- the pipeline --------------------------------------------------

/** One lexed file, its includes and its suppressions. */
struct Unit {
    std::string path;
    std::string scoped;
    std::vector<Token> code;
    std::vector<IncludeEdge> includes;
    AllowSet allows;
};

/** Every per-file rule. */
void
checkFile(const Unit &u, std::vector<Diag> &out)
{
    const std::string &path = u.path, &scoped = u.scoped;
    if (inDeterministicScope(scoped)) {
        checkNondet(path, u.code, out);
        checkPtrOrder(path, u.code, out);
    }
    if (isHeaderPath(scoped))
        checkHeader(path, scoped, u.code, out);
    std::string base = scoped.substr(scoped.find_last_of('/') + 1);
    if (startsWith(scoped, "bench/") && startsWith(base, "bench_") &&
        endsWith(base, ".cc"))
        checkBench(path, u.code, out);
    checkOrderedScope(path, scoped, u.code, out);
    if (startsWith(scoped, "src/mdp/"))
        checkPolicyCode(path, u.code, out);
}

} // namespace

// ---- public API -----------------------------------------------------

std::vector<Diag>
lintSources(const std::vector<SourceFile> &sources)
{
    // Pass 1: lex every file and gather the include graph.
    std::vector<Unit> units;
    units.reserve(sources.size());
    std::map<std::string, std::vector<IncludeEdge>> includes_of;
    std::map<std::string, std::string> original_of;
    for (const SourceFile &src : sources) {
        Unit u;
        u.path = src.path;
        u.scoped = scopedPath(src.path);
        u.code = codeTokens(lex(src.text));
        u.includes = collectIncludes(u.code);
        u.allows = collectAllows(src.path, src.text);
        includes_of[u.scoped] = u.includes;
        original_of[u.scoped] = u.path;
        units.push_back(std::move(u));
    }

    // Pass 2: the per-file rules, then the include graph over the
    // whole batch.
    std::map<std::string, std::vector<Diag>> found;
    for (const Unit &u : units)
        checkFile(u, found[u.path]);
    for (const GraphDiag &gd :
         checkIncludeGraph(includes_of, defaultLayers())) {
        const std::string &orig = original_of[gd.file];
        found[orig].push_back({orig, gd.line, gd.rule, gd.msg});
    }

    // Apply suppressions, merge, sort.
    std::vector<Diag> all;
    for (const Unit &u : units) {
        for (Diag &d : found[u.path])
            if (!u.allows.allows(d.line, d.rule))
                all.push_back(std::move(d));
        all.insert(all.end(), u.allows.malformed.begin(),
                   u.allows.malformed.end());
    }
    auto key = [](const Diag &d) {
        return std::tie(d.file, d.line, d.rule, d.msg);
    };
    std::sort(all.begin(), all.end(),
              [&](const Diag &a, const Diag &b) {
                  return key(a) < key(b);
              });
    all.erase(std::unique(all.begin(), all.end(),
                          [&](const Diag &a, const Diag &b) {
                              return key(a) == key(b);
                          }),
              all.end());
    return all;
}

std::vector<RuleDoc>
ruleDocs()
{
    return {
        {"bench-discipline",
         "a table source (bench/bench_*.cc) must run its cells on an "
         "ExperimentRunner and build no WorkloadContext directly"},
        {"header-guard",
         "headers carry the canonical MDP_<PATH>_HH include guard "
         "(no #pragma once)"},
        {"include-cycle",
         "the repo's #include graph must stay acyclic"},
        {"layering",
         "includes must respect tools/lint/layers.txt: no src/ "
         "directory may include a higher layer"},
        {"lint-allow",
         "a suppression comment must name a known rule and give a "
         "justification"},
        {"nondet-source",
         "banned nondeterminism sources (wall clocks, random "
         "engines, pids, thread ids, reinterpret_cast of a pointer "
         "to an integer) in src/ and bench/"},
        {"ordered-scope",
         "no std hash container (unordered_map/set/multimap/multiset) "
         "anywhere in src/ -- FlatHashMap has no iteration order to "
         "leak -- and no blocking call in runSpec under src/harness/"},
        {"policy-ctx-escape",
         "src/mdp/ code must not retain the per-call "
         "LoadIssueContext (no declaration of that type outside a "
         "function body, no address-of a context parameter)"},
        {"policy-static-state",
         "src/mdp/ code must not hold mutable static or "
         "thread_local data (cells sharing a process would couple)"},
        {"ptr-order",
         "ordered containers and comparators must not key on "
         "pointer values (std::map<T *, ...>, std::less<T *>)"},
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

const std::vector<OrderedScope> &
orderedScopes()
{
    static const std::vector<OrderedScope> kRows = {
        {"src/", inSrc, nullptr, kHashContainer,
         "its iteration order is unspecified and can leak into "
         "state, results and reports; use base/flat_hash.hh, which "
         "has no iteration API, or an ordered container"},
        {"runSpec", inHarnessDir, "runSpec", kBlockingCall,
         "the one simulation path of mdp_sim and mdp_served must not "
         "block every request queued behind it; do I/O and locking "
         "in the caller"},
    };
    return kRows;
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

std::vector<FunctionDef>
functionDefs(const std::vector<Token> &code)
{
    std::vector<FunctionDef> out;
    for (size_t i = 0; i < code.size(); ++i) {
        if (!isPunct(code[i], "("))
            continue;
        if (i == 0 || code[i - 1].kind != Tok::Ident)
            continue;
        const std::string &name = code[i - 1].spelling;
        if (name == "if" || name == "for" || name == "while" ||
            name == "switch" || name == "catch" || name == "return" ||
            name == "sizeof" || name == "alignof" ||
            name == "decltype" || name == "assert" || name == "new")
            continue;
        size_t close = matchGroup(code, i);
        if (close == SIZE_MAX)
            continue;

        // Skip trailing qualifiers / trailing return type / ctor
        // init list up to the body's '{'.
        size_t j = close + 1;
        bool in_init_list = false;
        while (j < code.size()) {
            const Token &t = code[j];
            if (t.kind == Tok::Ident) {
                if (!in_init_list &&
                    !(t.spelling == "const" ||
                      t.spelling == "noexcept" ||
                      t.spelling == "override" ||
                      t.spelling == "final" ||
                      t.spelling == "mutable" ||
                      t.spelling == "try"))
                    break;
                ++j;
            } else if (isPunct(t, "->") || isPunct(t, "::") ||
                       isPunct(t, "<") || isPunct(t, ">") ||
                       isPunct(t, "&") || isPunct(t, "*") ||
                       isPunct(t, ",")) {
                ++j;
            } else if (isPunct(t, ":")) {
                in_init_list = true;
                ++j;
            } else if (isPunct(t, "(")) {
                size_t g = matchGroup(code, j);
                if (g == SIZE_MAX || !in_init_list)
                    break;
                j = g + 1;
            } else if (isPunct(t, "{")) {
                // In an init list a brace directly after a name is a
                // member brace-init, not the body.
                if (in_init_list && j > 0 &&
                    (code[j - 1].kind == Tok::Ident ||
                     isPunct(code[j - 1], ">"))) {
                    size_t g = matchGroup(code, j);
                    if (g == SIZE_MAX)
                        break;
                    j = g + 1;
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        if (j >= code.size() || !isPunct(code[j], "{"))
            continue;
        size_t body_close = matchGroup(code, j);
        if (body_close == SIZE_MAX)
            continue;
        out.push_back({i, close, j, body_close});
        i = j;  // resume inside, in case of nested classes; nested
                // ranges are dropped below.
    }

    // Drop definitions nested inside an earlier body so each
    // statement is analyzed exactly once.
    std::vector<FunctionDef> top;
    for (const auto &r : out) {
        if (!top.empty() && r.body_open < top.back().body_close)
            continue;
        top.push_back(r);
    }
    return top;
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

LintRun
lintPaths(const std::string &root,
          const std::vector<std::string> &rel_paths)
{
    std::vector<SourceFile> sources;
    sources.reserve(rel_paths.size());
    for (const std::string &rel : rel_paths) {
        std::ifstream in(fs::path(root) / rel, std::ios::binary);
        if (!in)
            return {{}, rel};
        std::ostringstream buf;
        buf << in.rdbuf();
        sources.push_back({rel, buf.str()});
    }
    return {lintSources(sources), ""};
}

} // namespace mdp::lint
