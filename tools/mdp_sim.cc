/**
 * @file
 * mdp_sim: the command-line front end to every model in the library.
 *
 *   mdp_sim --list
 *   mdp_sim --workload espresso --policy esync --stages 8
 *   mdp_sim --workload gcc --model window --window 128
 *   mdp_sim --workload sc --save-trace sc.trc
 *   mdp_sim --load-trace sc.trc --policy psync --csv
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>

#include "base/args.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "harness/cycle_stats.hh"
#include "harness/sim_stats.hh"
#include "mdp/dep_policy.hh"
#include "trace/serialize.hh"
#include "window/window_model.hh"
#include "workloads/suites.hh"

using namespace mdp;

namespace
{

void
emitResult(const std::string &title, const StatGroup &stats, bool csv)
{
    if (csv) {
        TextTable t({"stat", "value"});
        for (const auto &[k, v] : stats.all())
            t.row({k, formatDouble(v, 6)});
        t.printCsv(std::cout);
    } else {
        std::printf("%s\n", title.c_str());
        stats.dump(std::cout, "  ");
    }
}

/**
 * Write the stats as a JSON report when --json-out was given.  The
 * document format lives in harness/sim_stats.hh, shared with
 * mdp_served so server and CLI artifacts are byte-identical.
 */
void
maybeWriteJson(const std::string &path, const std::string &model,
               double scale, const StatGroup &stats)
{
    if (path.empty())
        return;
    std::string error;
    if (!writeSimReport(path, model, scale, stats, error))
        mdp_fatal("--json-out: %s", error.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const RunSpec defaults;
    ArgParser args("mdp_sim");
    args.addFlag("list", "list registered workloads and exit");
    args.addFlag("list-policies",
                 "list registered dependence policies and exit");
    args.addFlag("help", "show this help");
    args.addOption("workload", defaults.workload,
                   "registered workload name");
    args.addOption("load-trace", "", "read the trace from a file");
    args.addOption("save-trace", "",
                   "write the generated trace to a file and exit");
    args.addOption("scale", "0.1", "trace-length scale factor");
    args.addOption("seed", "0", "generation seed override (0 = profile)");
    args.addOption("model", defaults.model,
                   specChoices("model") + "|window");
    args.addOption("policy", defaults.policy,
                   "dependence policy (--list-policies)");
    args.addOption("stages", "8", "Multiscalar processing stages");
    args.addOption("entries", "64", "MDPT entries");
    args.addOption("org", defaults.org, specChoices("org"));
    args.addOption("tags", defaults.tags, specChoices("tags"));
    args.addOption("window", "64",
                   "window size (ooo and window models)");
    args.addFlag("preload",
                 "preload profile-derived static edges (section 6)");
    args.addFlag("csv", "emit results as CSV");
    args.addOption("json-out", "",
                   "also write the results as a JSON report");

    if (!args.parse(argc, argv)) {
        std::fprintf(stderr, "%s\n%s", args.error().c_str(),
                     args.usage().c_str());
        return 2;
    }
    if (args.flag("help")) {
        std::printf("%s", args.usage().c_str());
        return 0;
    }
    if (args.flag("list")) {
        for (const auto &n : allWorkloadNames()) {
            const Workload &w = findWorkload(n);
            std::printf("%-14s %-10s %s\n", n.c_str(),
                        w.profile().suite.c_str(),
                        w.profile().notes.c_str());
        }
        return 0;
    }
    if (args.flag("list-policies")) {
        // First column is the registry key; CI scripts parse it with
        // awk '{print $1}' to build their policy matrices.
        for (const PolicyInfo &info : dependencePolicies())
            std::printf("%-10s %s\n", info.name.c_str(),
                        info.summary.c_str());
        return 0;
    }

    // A count option: negative or 32-bit-overflowing values are
    // rejected here, zero by checkRunSpec.
    auto count = [&args](const char *name) {
        const long v = args.getLong(name);
        if (v < 0 || v > long{UINT32_MAX})
            mdp_fatal("--%s out of range (got %ld)", name, v);
        return static_cast<unsigned>(v);
    };
    RunSpec spec;
    spec.workload = args.get("workload");
    spec.scale = args.getDouble("scale");
    spec.seed = static_cast<uint64_t>(args.getLong("seed"));
    spec.policy = args.get("policy");
    spec.stages = count("stages");
    spec.entries = count("entries");
    spec.org = args.get("org");
    spec.tags = args.get("tags");
    spec.window = count("window");
    spec.preload = args.flag("preload");
    // The window study is mdp_sim's own model; the rest of the spec
    // gets the same checks as a served request.
    const bool window_study = args.get("model") == "window";
    if (!window_study)
        spec.model = args.get("model");
    if (std::string error = checkRunSpec(spec); !error.empty())
        mdp_fatal("%s", error.c_str());

    // ---- obtain the shared workload context -------------------------
    // Default-seed generated workloads go through the process-wide
    // context cache (harness/experiment.hh) so repeated invocations in
    // one process -- and the oracle/task artifacts below -- are built
    // exactly once.  Loaded traces and seed overrides stay private.
    std::unique_ptr<WorkloadContext> owned;
    const WorkloadContext *ctx = nullptr;
    if (!args.get("load-trace").empty()) {
        std::string error;
        Trace trace = loadTrace(args.get("load-trace"), error);
        if (!error.empty())
            mdp_fatal("load-trace: %s", error.c_str());
        owned = std::make_unique<WorkloadContext>(std::move(trace));
        ctx = owned.get();
    } else {
        ctx = &specContext(spec, owned);
    }

    if (!args.get("save-trace").empty()) {
        if (!saveTrace(ctx->trace(), args.get("save-trace")))
            mdp_fatal("cannot write %s",
                      args.get("save-trace").c_str());
        std::printf("wrote %zu ops to %s\n", ctx->trace().size(),
                    args.get("save-trace").c_str());
        return 0;
    }

    bool csv = args.flag("csv");
    std::string json_out = args.get("json-out");

    // ---- perfect-window dependence study ----------------------------
    if (window_study) {
        WindowModel wm(ctx->trace(), ctx->oracle());
        auto r = wm.study(spec.window, {32, 128, 512});
        StatGroup g;
        g.set("window_size", r.windowSize);
        g.set("misspeculations",
              static_cast<double>(r.misSpeculations));
        g.set("static_deps", static_cast<double>(r.staticDeps));
        g.set("static_deps_999",
              static_cast<double>(r.staticDepsFor999));
        for (auto &[sz, rate] : r.ddcMissRates)
            g.set("ddc_missrate_" + std::to_string(sz), rate);
        emitResult("window model results", g, csv);
        maybeWriteJson(json_out, "window", spec.scale, g);
        return 0;
    }

    // ---- Multiscalar or superscalar model ---------------------------
    const StatGroup g = runSpec(*ctx, spec);
    emitResult(spec.model == "ooo"
                   ? "superscalar model results"
                   : "multiscalar results (" +
                         policyDisplayName(spec.policy) + ")",
               g, csv);
    maybeWriteJson(json_out, spec.model, spec.scale, g);
    // A run that hit its cycle cap printed partial counts: fail.
    if (cycleStats().truncatedRuns) {
        std::fprintf(stderr, "mdp_sim: the run hit its cycle cap; the "
                             "results above are partial\n");
        return 1;
    }
    return 0;
}
