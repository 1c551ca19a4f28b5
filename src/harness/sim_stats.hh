/**
 * @file
 * One run of one configuration, as the mdp_sim CLI and the mdp_served
 * batch server both spell it: the RunSpec, its checks, the context it
 * runs on, the run itself, and the per-run JSON report format.
 *
 * Both front ends must emit byte-identical documents for the same
 * spec -- CI diffs them -- so the config construction, the stat-group
 * construction, the "stat"/"value" table rendering (6-decimal
 * formatting) and the report envelope all live here, in one place.
 */

#ifndef MDP_HARNESS_SIM_STATS_HH
#define MDP_HARNESS_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "base/stats.hh"
#include "harness/runner.hh"
#include "multiscalar/config.hh"
#include "ooo/ooo_model.hh"

namespace mdp
{

/**
 * One point of the experiment space: a trace (workload, scale, seed),
 * a timing model, a dependence policy and the MDPT/MDST organization
 * and tag scheme.  The defaults are mdp_sim's.
 */
struct RunSpec
{
    std::string workload = "espresso";
    double scale = 0.1;
    uint64_t seed = 0; ///< 0 = the workload profile's default
    std::string model = "multiscalar";
    std::string policy = "esync";
    unsigned stages = 8; ///< multiscalar model only
    size_t entries = 64;
    std::string org = "combined";
    std::string tags = "distance";
    unsigned window = 64; ///< ooo model only
    bool preload = false; ///< multiscalar model only
};

/**
 * The names RunSpec's @p field ("model", "org" or "tags") accepts,
 * joined by '|', from the one name table in sim_stats.cc.
 */
std::string specChoices(const std::string &field);

/**
 * Reject what the models cannot run: an unregistered workload or
 * policy, an unknown model/org/tags name, a scale that is not
 * positive, or a zero stage count, table size or window.
 * @return the reason, or "" when @p spec is runnable.
 */
std::string checkRunSpec(const RunSpec &spec);

/**
 * The context @p spec runs on: the process-wide cached one for seed
 * 0, otherwise a private one generated into @p owned.
 */
const WorkloadContext &specContext(const RunSpec &spec,
                                   std::unique_ptr<WorkloadContext> &owned);

/**
 * Run a checked @p spec on @p ctx through runMultiscalar()/runOoo()
 * and return the model's scoreboard.
 */
StatGroup runSpec(const WorkloadContext &ctx, const RunSpec &spec);

/** The full Multiscalar scoreboard, in the report's canonical order. */
StatGroup multiscalarStats(const SimResult &r);

/** The superscalar (ooo) scoreboard, in the report's canonical order. */
StatGroup oooStats(const OooResult &r);

/**
 * Write @p stats as a per-run JSON report to @p path, in exactly the
 * format of `mdp_sim --json-out`: bench "mdp_sim_<model>", one
 * "stats" table of ("stat", value-at-6-decimals) rows.
 * @return false and fill @p error on I/O failure.
 */
bool writeSimReport(const std::string &path, const std::string &model,
                    double scale, const StatGroup &stats,
                    std::string &error);

} // namespace mdp

#endif // MDP_HARNESS_SIM_STATS_HH
