/**
 * @file
 * mdp_lint -- the repo's determinism and hygiene gate.
 *
 * Usage:
 *   mdp_lint [options] [file...]
 *
 * Options:
 *   --root DIR            repo root (default: current directory)
 *   --list-rules          print every rule id with its one-line doc
 *   --help                print usage and exit
 *
 * With no files, lints the default set (src/, bench/, tools/,
 * tests/, examples/ minus tests/lint_fixtures).  When files ARE
 * given, the whole default set is still analyzed -- the cross-file
 * rules (layering, cycles) need it -- but only diagnostics in the
 * named files are reported.
 *
 * Exit codes: 0 clean, 1 findings, 2 usage or I/O error.  See
 * tools/lint_core.hh for the rule set and the suppression syntax.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "lint_core.hh"

namespace
{

int
usageError(const char *msg, const char *arg)
{
    std::fprintf(stderr, "mdp_lint: %s%s%s\n", msg, arg ? " " : "",
                 arg ? arg : "");
    std::fprintf(stderr, "try: mdp_lint --help\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using mdp::lint::Diag;

    std::string root = ".";
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--root") == 0) {
            if (i + 1 >= argc)
                return usageError("--root needs a directory", nullptr);
            root = argv[++i];
        } else if (std::strcmp(a, "--list-rules") == 0) {
            for (const mdp::lint::RuleDoc &r : mdp::lint::ruleDocs())
                std::printf("%-24s %s\n", r.id.c_str(),
                            r.doc.c_str());
            return 0;
        } else if (std::strcmp(a, "--help") == 0) {
            std::printf(
                "usage: mdp_lint [--root DIR] [--list-rules] "
                "[--help] [file...]\n"
                "exit codes: 0 clean, 1 findings, 2 usage/IO "
                "error\n");
            return 0;
        } else if (a[0] == '-') {
            return usageError("unknown option", a);
        } else {
            std::string f = a;
            // Accept paths given with the root prefix attached.
            if (f.rfind(root + "/", 0) == 0)
                f = f.substr(root.size() + 1);
            files.push_back(f);
        }
    }

    // The analysis set is always the full default set plus any
    // explicitly named files (cross-file rules need the whole tree);
    // named files act as a report filter.
    std::vector<std::string> analyze =
        mdp::lint::discoverFiles(root);
    std::set<std::string> report_filter(files.begin(), files.end());
    for (const std::string &f : files) {
        if (std::find(analyze.begin(), analyze.end(), f) ==
            analyze.end())
            analyze.push_back(f);
    }
    if (analyze.empty()) {
        std::fprintf(stderr,
                     "mdp_lint: no lintable files under %s\n",
                     root.c_str());
        return 2;
    }

    mdp::lint::LintRun run = mdp::lint::lintPaths(root, analyze);
    if (!run.unreadable.empty()) {
        std::fprintf(stderr, "mdp_lint: cannot read %s\n",
                     run.unreadable.c_str());
        return 2;
    }
    std::vector<Diag> diags;
    for (Diag &d : run.diags)
        if (report_filter.empty() || report_filter.count(d.file))
            diags.push_back(std::move(d));

    for (const Diag &d : diags)
        std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.msg.c_str());
    if (diags.empty()) {
        std::printf("mdp_lint: %zu files clean\n", analyze.size());
        return 0;
    }
    std::fprintf(stderr,
                 "mdp_lint: %zu diagnostic(s) in %zu files\n",
                 diags.size(), analyze.size());
    return 1;
}
