/**
 * @file
 * Policy-purity analysis: DependencePolicy subclasses must be pure.
 *
 * A single policy object drives both timing models and every lane
 * of an mdp_served batch, so the registry contract is strict: a
 * policy's behavior may depend only on its own members and the
 * LoadIssueContext it is handed per call.  Two rule families
 * enforce that mechanically:
 *
 *  - `policy-static-state`: no mutable `static` (or `thread_local`)
 *    data, at class scope or function-local, anywhere in a policy
 *    class.  `static const`/`static constexpr` are fine — they are
 *    immutable and lane-invisible.
 *  - `policy-ctx-escape`: the per-call LoadIssueContext must not be
 *    retained beyond the call — no members mentioning the type, and
 *    no taking the address of a context parameter inside a method.
 *
 * Extraction is per-file and purely syntactic:
 * collectClassFacts() records every class, its base names, and the
 * would-be findings.  Whether a class actually IS a policy needs the
 * whole batch (SyncFamilyPolicy subclasses resolve transitively), so
 * the caller joins the facts with resolvesToPolicy() and only then
 * turns findings into diagnostics.
 */

#ifndef MDP_TOOLS_LINT_PURITY_HH
#define MDP_TOOLS_LINT_PURITY_HH

#include <map>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace mdp::lint
{

struct ClassFinding {
    int line = 0;
    std::string rule;  ///< policy-static-state or policy-ctx-escape
    std::string msg;
};

struct ClassFact {
    std::string name;
    std::vector<std::string> bases;  ///< unqualified base names
    std::vector<ClassFinding> findings;
};

/** Every class/struct definition in one file's comment-free token
 *  stream, with its purity findings (reported only if the class
 *  resolves to a DependencePolicy). */
std::vector<ClassFact> collectClassFacts(
    const std::vector<Token> &code);

/** Does @p name derive (transitively, across the batch's class map)
 *  from DependencePolicy? */
bool resolvesToPolicy(
    const std::string &name,
    const std::map<std::string, std::vector<std::string>> &bases_of);

} // namespace mdp::lint

#endif // MDP_TOOLS_LINT_PURITY_HH
