#include "harness/sim_stats.hh"

#include <cmath>
#include <utility>

#include "base/table.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "mdp/dep_policy.hh"
#include "workloads/suites.hh"

namespace mdp
{

namespace
{

/** A name RunSpec's model, org or tags field accepts, with the enum
 *  value it selects (models dispatch on the name itself). */
struct SpecName
{
    const char *field;
    const char *name;
    int value;
};

constexpr SpecName kSpecNames[] = {
    {"model", "multiscalar", 0},
    {"model", "ooo", 0},
    {"org", "combined", static_cast<int>(SyncOrganization::Combined)},
    {"org", "split", static_cast<int>(SyncOrganization::Split)},
    {"org", "distributed",
     static_cast<int>(SyncOrganization::Distributed)},
    {"tags", "distance", static_cast<int>(TagScheme::Distance)},
    {"tags", "address", static_cast<int>(TagScheme::Address)},
};

const SpecName *
findSpecName(const std::string &field, const std::string &name)
{
    for (const SpecName &n : kSpecNames)
        if (field == n.field && name == n.name)
            return &n;
    return nullptr;
}

/** The enum a checked spec's @p name selects for @p field. */
template <typename E>
E
specEnum(const std::string &field, const std::string &name)
{
    return static_cast<E>(findSpecName(field, name)->value);
}

} // namespace

std::string
specChoices(const std::string &field)
{
    std::string out;
    for (const SpecName &n : kSpecNames) {
        if (field != n.field)
            continue;
        if (!out.empty())
            out += '|';
        out += n.name;
    }
    return out;
}

std::string
checkRunSpec(const RunSpec &spec)
{
    if (!hasWorkload(spec.workload))
        return "unknown workload '" + spec.workload +
               "' (mdp_sim --list prints the registry)";
    if (!(spec.scale > 0.0) || !std::isfinite(spec.scale))
        return "scale must be a positive number (got " +
               formatDouble(spec.scale, 6) + ")";
    const std::pair<const char *, const std::string *> names[] = {
        {"model", &spec.model}, {"org", &spec.org}, {"tags", &spec.tags}};
    for (const auto &[field, name] : names)
        if (!findSpecName(field, *name))
            return "unknown " + std::string(field) + " '" + *name +
                   "' (" + specChoices(field) + ")";
    if (!knownDependencePolicy(spec.policy))
        return "unknown policy '" + spec.policy +
               "' (mdp_sim --list-policies prints the registry)";
    if (spec.stages < 1 || spec.stages > kMaxStages)
        return "stages must be in 1.." + std::to_string(kMaxStages) +
               " (got " + std::to_string(spec.stages) + ")";
    if (spec.entries < 1)
        return "entries must be >= 1 (got 0)";
    if (spec.window < 1)
        return "window must be >= 1 (got 0)";
    return "";
}

const WorkloadContext &
specContext(const RunSpec &spec, std::unique_ptr<WorkloadContext> &owned)
{
    if (spec.seed == 0)
        return cachedContext(spec.workload, spec.scale);
    const Workload &w = findWorkload(spec.workload);
    owned = std::make_unique<WorkloadContext>(
        w.generate(spec.scale, spec.seed),
        w.profile().taskMispredictRate);
    return *owned;
}

StatGroup
runSpec(const WorkloadContext &ctx, const RunSpec &spec)
{
    const auto org = specEnum<SyncOrganization>("org", spec.org);
    const auto tags = specEnum<TagScheme>("tags", spec.tags);
    if (spec.model == "ooo") {
        OooConfig cfg;
        cfg.windowSize = spec.window;
        cfg.policyName = spec.policy;
        cfg.sync.numEntries = spec.entries;
        cfg.sync.tags = tags;
        cfg.organization = org;
        return oooStats(runOoo(ctx, cfg));
    }
    MultiscalarConfig cfg =
        makeMultiscalarConfig(ctx, spec.stages, spec.policy);
    cfg.sync.numEntries = spec.entries;
    cfg.sync.tags = tags;
    cfg.organization = org;
    if (spec.preload)
        cfg.preloadEdges = analyzeStaticEdges(ctx);
    return multiscalarStats(runMultiscalar(ctx, cfg));
}

StatGroup
multiscalarStats(const SimResult &r)
{
    StatGroup g;
    g.set("cycles", static_cast<double>(r.cycles));
    g.set("committed_ops", static_cast<double>(r.committedOps));
    g.set("committed_loads", static_cast<double>(r.committedLoads));
    g.set("committed_stores", static_cast<double>(r.committedStores));
    g.set("committed_tasks", static_cast<double>(r.committedTasks));
    g.set("ipc", r.ipc());
    g.set("misspeculations", static_cast<double>(r.misSpeculations));
    g.set("misspec_per_load", r.misspecPerLoad());
    g.set("squashed_ops", static_cast<double>(r.squashedOps));
    g.set("control_stalls", static_cast<double>(r.controlStalls));
    g.set("loads_blocked_sync",
          static_cast<double>(r.loadsBlockedSync));
    g.set("loads_blocked_frontier",
          static_cast<double>(r.loadsBlockedFrontier));
    g.set("frontier_releases",
          static_cast<double>(r.frontierReleases));
    g.set("sync_wait_cycles", static_cast<double>(r.syncWaitCycles));
    g.set("value_pred_uses", static_cast<double>(r.valuePredUses));
    g.set("value_pred_hits", static_cast<double>(r.valuePredHits));
    g.set("value_pred_misses",
          static_cast<double>(r.valuePredMisses));
    g.set("pred_nn", static_cast<double>(r.pred.nn));
    g.set("pred_ny", static_cast<double>(r.pred.ny));
    g.set("pred_yn", static_cast<double>(r.pred.yn));
    g.set("pred_yy", static_cast<double>(r.pred.yy));
    return g;
}

StatGroup
oooStats(const OooResult &r)
{
    StatGroup g;
    g.set("cycles", static_cast<double>(r.cycles));
    g.set("committed_ops", static_cast<double>(r.committedOps));
    g.set("ipc", r.ipc());
    g.set("misspeculations", static_cast<double>(r.misSpeculations));
    g.set("squashed_ops", static_cast<double>(r.squashedOps));
    g.set("loads_blocked", static_cast<double>(r.loadsBlocked));
    return g;
}

bool
writeSimReport(const std::string &path, const std::string &model,
               double scale, const StatGroup &stats, std::string &error)
{
    TextTable t({"stat", "value"});
    for (const auto &[k, v] : stats.all())
        t.row({k, formatDouble(v, 6)});
    BenchReport report("mdp_sim_" + model, "mdp_sim CLI run");
    report.setScale(scale);
    report.addTable(t, "stats");
    return report.writeTo(path, error);
}

} // namespace mdp
