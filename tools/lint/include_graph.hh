/**
 * @file
 * The repo's #include DAG and the layering rules over it.
 *
 * Per-file include extraction is a pure function of file content;
 * graph construction and the two rule families (include-cycle,
 * layering) run over a whole batch of files:
 *
 *  - `layering`: a file in src/<dir> may include headers only from
 *    directories of equal or lower rank in tools/lint/layers.txt.
 *    An upward include is a diagnostic.  Files outside src/ are
 *    unranked and may include anything.
 *  - `include-cycle`: any cycle among the repo's own headers, over
 *    edges whose target resolves to a file in the analyzed batch.
 *    Each cycle is reported once, at its lexicographically smallest
 *    member.
 *
 * Resolution mirrors the build: `#include "x/y.hh"` resolves against
 * the include roots (src/, bench/, tools/) and the including file's
 * own directory; `<...>` system includes are recorded but never
 * resolve in-repo.
 */

#ifndef MDP_TOOLS_LINT_INCLUDE_GRAPH_HH
#define MDP_TOOLS_LINT_INCLUDE_GRAPH_HH

#include <map>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace mdp::lint
{

struct IncludeEdge {
    std::string path;   ///< spelling between the delimiters
    int line = 0;       ///< line of the #include
    bool angled = false;  ///< <...> rather than "..."
};

/** Extract the #include edges of one file from its token stream. */
std::vector<IncludeEdge> collectIncludes(
    const std::vector<Token> &tokens);

/** One layering entry: directory name under src/ and its rank. */
struct LayerSpec {
    std::map<std::string, int> rank_of_dir;
    /** Parse layers.txt content; unknown lines are ignored. */
    static LayerSpec parse(const std::string &text);
    /** Rank of the src/ subdirectory holding @p repo_path, or -1 when
     *  the file is not under a ranked directory. */
    int rankOf(const std::string &repo_path) const;
};

/** The built-in spec (mirrors tools/lint/layers.txt, which is the
 *  human-readable source of truth; a test asserts they agree). */
const LayerSpec &defaultLayers();

struct GraphDiag {
    std::string file;  ///< repo-relative path of the including file
    int line = 0;
    std::string rule;  ///< "layering" or "include-cycle"
    std::string msg;
};

/**
 * Run both graph rules over a batch.  @p includes_of maps each
 * repo-relative path to its extracted edges.  Quoted edges resolve
 * against src/, bench/, tools/, the repo root, and the including
 * file's directory.  Cycle detection only follows edges whose target
 * is present in the batch; the layering check additionally falls
 * back to the textual src-relative reading of the include path, so
 * it holds even when linting a partial batch.
 */
std::vector<GraphDiag> checkIncludeGraph(
    const std::map<std::string, std::vector<IncludeEdge>> &includes_of,
    const LayerSpec &layers);

} // namespace mdp::lint

#endif // MDP_TOOLS_LINT_INCLUDE_GRAPH_HH
