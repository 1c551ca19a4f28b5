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

#include <cstdio>
#include <iostream>
#include <optional>

#include "base/args.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "harness/experiment.hh"
#include "mdp/dep_policy.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sim_stats.hh"
#include "ooo/ooo_model.hh"
#include "trace/serialize.hh"
#include "window/window_model.hh"
#include "workloads/suites.hh"

using namespace mdp;

namespace
{

SyncOrganization
parseOrg(const std::string &s)
{
    if (s == "combined")
        return SyncOrganization::Combined;
    if (s == "split")
        return SyncOrganization::Split;
    if (s == "distributed")
        return SyncOrganization::Distributed;
    mdp_fatal("unknown organization '%s' (combined|split|distributed)",
              s.c_str());
}

TagScheme
parseTags(const std::string &s)
{
    if (s == "distance")
        return TagScheme::Distance;
    if (s == "address")
        return TagScheme::Address;
    mdp_fatal("unknown tag scheme '%s' (distance|address)", s.c_str());
}

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
    ArgParser args("mdp_sim");
    args.addFlag("list", "list registered workloads and exit");
    args.addFlag("list-policies",
                 "list registered dependence policies and exit");
    args.addFlag("help", "show this help");
    args.addOption("workload", "espresso", "registered workload name");
    args.addOption("load-trace", "", "read the trace from a file");
    args.addOption("save-trace", "",
                   "write the generated trace to a file and exit");
    args.addOption("scale", "0.1", "trace-length scale factor");
    args.addOption("seed", "0", "generation seed override (0 = profile)");
    args.addOption("model", "multiscalar",
                   "multiscalar | ooo | window");
    args.addOption("policy", "esync",
                   "dependence policy (--list-policies)");
    args.addOption("stages", "8", "Multiscalar processing stages");
    args.addOption("entries", "64", "MDPT entries");
    args.addOption("org", "combined", "combined | split | distributed");
    args.addOption("tags", "distance", "distance | address");
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

    // The policy is a registry key; reject an unknown one up front.
    const std::string policy_arg = args.get("policy");
    if (!knownDependencePolicy(policy_arg))
        mdp_fatal("unknown policy '%s' (--list-policies prints the "
                  "registry)",
                  policy_arg.c_str());

    // ---- obtain the shared workload context -------------------------
    // Default-seed generated workloads go through the process-wide
    // context cache (harness/experiment.hh) so repeated invocations in
    // one process -- and the oracle/task artifacts below -- are built
    // exactly once.  Loaded traces and seed overrides stay private.
    double scale = args.getDouble("scale");
    std::optional<WorkloadContext> owned;
    const WorkloadContext *ctx = nullptr;
    if (!args.get("load-trace").empty()) {
        std::string error;
        Trace trace = loadTrace(args.get("load-trace"), error);
        if (!error.empty())
            mdp_fatal("load-trace: %s", error.c_str());
        owned.emplace(std::move(trace));
        ctx = &*owned;
    } else {
        const Workload &w = findWorkload(args.get("workload"));
        auto seed = static_cast<uint64_t>(args.getLong("seed"));
        if (seed == 0) {
            ctx = &cachedContext(w.name(), scale);
        } else {
            owned.emplace(w.generate(scale, seed),
                          w.profile().taskMispredictRate);
            ctx = &*owned;
        }
    }

    if (!args.get("save-trace").empty()) {
        if (!saveTrace(ctx->trace(), args.get("save-trace")))
            mdp_fatal("cannot write %s",
                      args.get("save-trace").c_str());
        std::printf("wrote %zu ops to %s\n", ctx->trace().size(),
                    args.get("save-trace").c_str());
        return 0;
    }

    std::string model = args.get("model");
    bool csv = args.flag("csv");
    std::string json_out = args.get("json-out");

    // ---- perfect-window dependence study ----------------------------
    if (model == "window") {
        WindowModel wm(ctx->trace(), ctx->oracle());
        auto r = wm.study(
            static_cast<uint32_t>(args.getLong("window")),
            {32, 128, 512});
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
        maybeWriteJson(json_out, model, scale, g);
        return 0;
    }

    // ---- superscalar continuous-window model ------------------------
    if (model == "ooo") {
        OooConfig cfg;
        cfg.windowSize = static_cast<unsigned>(args.getLong("window"));
        cfg.policyName = policy_arg;
        cfg.sync.numEntries =
            static_cast<size_t>(args.getLong("entries"));
        cfg.sync.tags = parseTags(args.get("tags"));
        cfg.organization = parseOrg(args.get("org"));
        OooResult r = runOoo(*ctx, cfg);
        StatGroup g = oooStats(r);
        emitResult("superscalar model results", g, csv);
        maybeWriteJson(json_out, model, scale, g);
        return 0;
    }

    // ---- Multiscalar model -------------------------------------------
    if (model != "multiscalar")
        mdp_fatal("unknown model '%s'", model.c_str());

    MultiscalarConfig cfg = makeMultiscalarConfig(
        *ctx, static_cast<unsigned>(args.getLong("stages")),
        policy_arg);
    cfg.sync.numEntries = static_cast<size_t>(args.getLong("entries"));
    cfg.sync.tags = parseTags(args.get("tags"));
    cfg.organization = parseOrg(args.get("org"));
    if (args.flag("preload"))
        cfg.preloadEdges = analyzeStaticEdges(*ctx);

    SimResult r = runMultiscalar(*ctx, cfg);
    emitResult("multiscalar results (" +
                   policyDisplayName(cfg.policyName) + ")",
               multiscalarStats(r), csv);
    maybeWriteJson(json_out, model, scale, multiscalarStats(r));
    return 0;
}
