#include "lint/purity.hh"

#include <set>

#include "lint/dataflow.hh"

namespace mdp::lint
{

namespace
{

bool
runHas(const std::vector<Token> &code, size_t b, size_t e,
       const char *ident)
{
    for (size_t i = b; i < e; ++i)
        if (isIdent(code[i], ident))
            return true;
    return false;
}

/** Parameter names whose declared type mentions LoadIssueContext,
 *  scanned from a parameter list [open, close]. */
std::vector<std::string>
ctxParamNames(const std::vector<Token> &code, size_t open,
              size_t close)
{
    std::vector<std::string> names;
    size_t start = open + 1;
    int depth = 0;
    for (size_t i = open + 1; i <= close && i < code.size(); ++i) {
        const Token &t = code[i];
        bool at_end = i == close;
        if (t.kind == Tok::Punct) {
            const std::string &s = t.spelling;
            if (s == "(" || s == "<" || s == "[" || s == "{")
                ++depth;
            else if (s == ")" || s == ">" || s == "]" || s == "}")
                --depth;
        }
        bool split = at_end ||
                     (depth == 0 && isPunct(t, ","));
        if (!split)
            continue;
        // One parameter: [start, i).  Its name is the last
        // identifier before any default argument.
        size_t end = i;
        for (size_t k = start; k < end; ++k)
            if (isPunct(code[k], "=")) {
                end = k;
                break;
            }
        if (runHas(code, start, end, "LoadIssueContext")) {
            for (size_t k = end; k > start;) {
                --k;
                if (code[k].kind == Tok::Ident &&
                    code[k].spelling != "LoadIssueContext" &&
                    code[k].spelling != "const") {
                    names.push_back(code[k].spelling);
                    break;
                }
            }
        }
        start = i + 1;
    }
    return names;
}

/** Scan one statement run for a mutable static declaration. */
void
checkStaticRun(const std::vector<Token> &code, size_t b, size_t e,
               bool at_class_scope, std::vector<ClassFinding> &out)
{
    size_t static_at = SIZE_MAX;
    for (size_t i = b; i < e; ++i) {
        if (isIdent(code[i], "static") ||
            isIdent(code[i], "thread_local")) {
            static_at = i;
            break;
        }
    }
    if (static_at == SIZE_MAX)
        return;
    // A static member *function* declaration is state-free; only
    // data declarations count.  Heuristic: a declaration whose first
    // group opener is '(' directly after the declared name is a
    // function; `static int f();` has ident '(' — but so does
    // `static const std::string n = mk();`?  No: there the '(' comes
    // after '=', which we cut at first.
    size_t cut = e;
    for (size_t i = b; i < e; ++i)
        if (isPunct(code[i], "=")) {
            cut = i;
            break;
        }
    for (size_t i = static_at; i + 1 < cut; ++i)
        if (code[i].kind == Tok::Ident && isPunct(code[i + 1], "("))
            return;  // function declaration/definition
    if (runHas(code, b, cut, "const") ||
        runHas(code, b, cut, "constexpr"))
        return;
    bool tls = isIdent(code[static_at], "thread_local") ||
               runHas(code, b, cut, "thread_local");
    out.push_back(
        {code[static_at].line, "policy-static-state",
         std::string(tls ? "thread_local" : "mutable static") +
             (at_class_scope ? " data member" : " local") +
             " in a DependencePolicy: policies must be pure (one "
             "object serves every lane, so state would couple "
             "them)"});
}

} // namespace

std::vector<ClassFact>
collectClassFacts(const std::vector<Token> &code)
{
    std::vector<ClassFact> out;
    std::vector<FunctionDef> fns = functionDefs(code);

    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (!isIdent(code[i], "class") && !isIdent(code[i], "struct"))
            continue;
        if (code[i].pp)
            continue;
        if (code[i + 1].kind != Tok::Ident)
            continue;
        ClassFact fact;
        fact.name = code[i + 1].spelling;
        size_t j = i + 2;
        if (j < code.size() && isIdent(code[j], "final"))
            ++j;
        if (j < code.size() && isPunct(code[j], ":")) {
            // Base clause: collect the last identifier of each
            // qualified base name (mdp::DependencePolicy ->
            // DependencePolicy), skipping template arguments.
            ++j;
            std::string last_ident;
            int angle = 0;
            while (j < code.size() && !isPunct(code[j], "{") &&
                   !isPunct(code[j], ";")) {
                const Token &t = code[j];
                if (isPunct(t, "<"))
                    ++angle;
                else if (isPunct(t, ">"))
                    --angle;
                else if (angle == 0 && t.kind == Tok::Ident &&
                         t.spelling != "public" &&
                         t.spelling != "private" &&
                         t.spelling != "protected" &&
                         t.spelling != "virtual")
                    last_ident = t.spelling;
                if (angle == 0 && isPunct(t, ",") &&
                    !last_ident.empty()) {
                    fact.bases.push_back(last_ident);
                    last_ident.clear();
                }
                ++j;
            }
            if (!last_ident.empty())
                fact.bases.push_back(last_ident);
        }
        if (j >= code.size() || !isPunct(code[j], "{"))
            continue;  // forward declaration or macro soup
        size_t body_close = matchGroup(code, j);
        if (body_close == SIZE_MAX)
            continue;

        // Member functions whose body lies inside this class body.
        std::vector<const FunctionDef *> methods;
        for (const FunctionDef &fd : fns)
            if (fd.body_open > j && fd.body_close < body_close)
                methods.push_back(&fd);
        // Class-scope statements: split on ';' and on skipped brace
        // groups (an inline method body ends its header without a
        // ';', so the group itself is a boundary — otherwise the
        // header would merge into the next member's statement).
        auto memberStmt = [&](size_t b, size_t e) {
            if (b >= e)
                return;
            checkStaticRun(code, b, e, true, fact.findings);
            // Retaining the context: any non-function member
            // declaration mentioning the type.  Function decls
            // (which legitimately take `const LoadIssueContext&`
            // parameters) are recognized by their paren.
            bool has_paren = false;
            for (size_t m = b; m < e; ++m)
                if (isPunct(code[m], "("))
                    has_paren = true;
            if (!has_paren &&
                runHas(code, b, e, "LoadIssueContext")) {
                size_t at = b;
                for (size_t m = b; m < e; ++m)
                    if (isIdent(code[m], "LoadIssueContext")) {
                        at = m;
                        break;
                    }
                fact.findings.push_back(
                    {code[at].line, "policy-ctx-escape",
                     "member retains LoadIssueContext: the context "
                     "is only valid for the duration of the call"});
            }
        };
        size_t start = j + 1;
        for (size_t k = j + 1; k < body_close; ++k) {
            const Token &t = code[k];
            if (isPunct(t, "{")) {
                size_t g = matchGroup(code, k);
                if (g == SIZE_MAX || g > body_close)
                    break;
                memberStmt(start, k);
                k = g;
                start = g + 1;
                continue;
            }
            if (!isPunct(t, ";"))
                continue;
            memberStmt(start, k);
            start = k + 1;
        }

        // Function-local statics and address-of-context inside each
        // method.
        for (const FunctionDef *m : methods) {
            size_t s = m->body_open + 1;
            for (size_t k = m->body_open + 1; k <= m->body_close;
                 ++k) {
                bool boundary = k == m->body_close ||
                                (code[k].kind == Tok::Punct &&
                                 (code[k].spelling == ";" ||
                                  code[k].spelling == "{" ||
                                  code[k].spelling == "}"));
                if (!boundary)
                    continue;
                if (k > s)
                    checkStaticRun(code, s, k, false, fact.findings);
                s = k + 1;
            }
            for (const std::string &ctx :
                 ctxParamNames(code, m->params_open,
                               m->params_close)) {
                for (size_t k = m->body_open + 1;
                     k + 1 < m->body_close; ++k) {
                    if (!isPunct(code[k], "&") ||
                        !isIdent(code[k + 1], ctx.c_str()))
                        continue;
                    // `a & ctx` is a binary op; address-of has no
                    // value operand on the left.
                    const Token &prev = code[k - 1];
                    if (prev.kind == Tok::Ident ||
                        prev.kind == Tok::Number ||
                        isPunct(prev, ")") || isPunct(prev, "]"))
                        continue;
                    fact.findings.push_back(
                        {code[k].line, "policy-ctx-escape",
                         "address of LoadIssueContext parameter '" +
                             ctx +
                             "' taken: the context must not outlive "
                             "the call"});
                }
            }
        }

        out.push_back(std::move(fact));
        i = j;  // continue scanning inside for nested classes
    }
    return out;
}

bool
resolvesToPolicy(
    const std::string &name,
    const std::map<std::string, std::vector<std::string>> &bases_of)
{
    std::set<std::string> seen;
    std::vector<std::string> work{name};
    while (!work.empty()) {
        std::string cur = work.back();
        work.pop_back();
        if (!seen.insert(cur).second)
            continue;
        if (cur == "DependencePolicy")
            return true;
        auto it = bases_of.find(cur);
        if (it == bases_of.end())
            continue;
        for (const std::string &b : it->second)
            work.push_back(b);
    }
    return false;
}

} // namespace mdp::lint
