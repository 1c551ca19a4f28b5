/**
 * @file
 * Predictor zoo ablation: every registered dependence policy -- the
 * seven paper policies plus the descendant predictors (store-sets,
 * per-load saturating counter, value-assisted sync) -- on the full
 * 18-program SPEC95 set at 8 stages.
 *
 * One aggregate row per policy: geomean IPC, geomean speedup over
 * blind speculation (ALWAYS), mis-speculations and predictor-imposed
 * waits per 1000 committed loads, full-flag bypasses, and the
 * capacity/aliasing signals (cyclic-clear eviction releases, frontier
 * releases, value-prediction uses).
 */

#include <cmath>
#include <cstdint>
#include <iostream>

#include "base/logging.hh"
#include "bench_common.hh"
#include "mdp/dep_policy.hh"

using namespace mdp;

namespace
{

/** Totals of one policy across the whole program set. */
struct PolicyAggregate
{
    double logIpcSum = 0.0;
    double logRatioSum = 0.0; ///< vs the ALWAYS baseline, per program
    uint64_t loads = 0;
    uint64_t misspecs = 0;
    uint64_t waits = 0;    ///< loads the predictor made wait
    uint64_t bypasses = 0; ///< full/empty flag bypasses
    uint64_t evictions = 0;
    uint64_t frontier = 0;
    uint64_t predicted = 0;
    uint64_t vpUses = 0;
};

bool
isDescendant(const std::string &key)
{
    return key == "storeset" || key == "counter" || key == "vassist";
}

double
perKiloLoads(uint64_t n, uint64_t loads)
{
    return loads ? 1000.0 * static_cast<double>(n) / loads : 0.0;
}

} // namespace

TextTable
ablationZoo(ShapeChecks &sc)
{
    const std::vector<std::string> policies = dependencePolicyNames();

    std::vector<std::pair<std::string, std::string>> programs;
    for (const auto &name : specInt95Names())
        programs.emplace_back("SPECint95", name);
    for (const auto &name : specFp95Names())
        programs.emplace_back("SPECfp95", name);

    // The value-locality addendum's cells (last in the grid): one
    // espresso variant whose recurrence stores repeat their values 95%
    // of the time, so the value-assisted descendant must monetize the
    // locality its stock-profile row cannot show.
    WorkloadProfile vp = findWorkload("espresso").profile();
    vp.name = "espresso-zoo-vs0.95";
    for (auto &rec : vp.recurrences)
        rec.valueStability = 0.95;
    Workload vw(std::move(vp));
    // mdp-lint: allow(bench-discipline): custom value-locality profile.
    WorkloadContext vctx(vw.generate(benchScale()));

    ExperimentRunner<SimResult> runner;
    for (const auto &[suite, name] : programs)
        for (const std::string &key : policies)
            runner.add(multiscalarCell(name, 8, key));
    for (const char *key : {"sync", "vassist"})
        runner.add([&vctx, key] {
            return runMultiscalar(vctx,
                                  makeMultiscalarConfig(vctx, 8, key));
        });
    const std::vector<SimResult> results = runner.runAll();

    size_t baseline = policies.size();
    for (size_t j = 0; j < policies.size(); ++j)
        if (policies[j] == "always")
            baseline = j;
    if (baseline == policies.size())
        mdp_fatal("registry lost the 'always' baseline policy");

    std::vector<PolicyAggregate> agg(policies.size());
    for (size_t i = 0; i < programs.size(); ++i) {
        const SimResult &always =
            results[i * policies.size() + baseline];
        for (size_t j = 0; j < policies.size(); ++j) {
            const SimResult &r = results[i * policies.size() + j];
            PolicyAggregate &a = agg[j];
            a.logIpcSum += std::log(r.ipc());
            a.logRatioSum += std::log(r.ipc() / always.ipc());
            a.loads += r.committedLoads;
            a.misspecs += r.misSpeculations;
            a.waits += r.syncStats.loadsWaited;
            a.bypasses += r.syncStats.fullBypasses;
            a.evictions += r.syncStats.evictionReleases;
            a.frontier += r.frontierReleases;
            a.predicted += r.syncStats.loadsPredicted;
            a.vpUses += r.valuePredUses;
        }
    }

    const double n = static_cast<double>(programs.size());
    auto geomeanIpc = [&](const PolicyAggregate &a) {
        return std::exp(a.logIpcSum / n);
    };
    auto speedup = [&](const PolicyAggregate &a) {
        return 100.0 * (std::exp(a.logRatioSum / n) - 1.0);
    };
    auto misspecs = [&](const std::string &key) {
        for (size_t j = 0; j < policies.size(); ++j)
            if (policies[j] == key)
                return agg[j].misspecs;
        mdp_fatal("policy '%s' missing from the registry",
                  key.c_str());
    };
    auto speedupOf = [&](const std::string &key) {
        for (size_t j = 0; j < policies.size(); ++j)
            if (policies[j] == key)
                return speedup(agg[j]);
        mdp_fatal("policy '%s' missing from the registry",
                  key.c_str());
    };

    TextTable t({"policy", "lineage", "IPC (gm)", "vs ALWAYS",
                 "misspec/kld", "waits/kld", "bypass/kld", "evict rel",
                 "frontier rel", "vp uses"});
    for (size_t j = 0; j < policies.size(); ++j) {
        const PolicyAggregate &a = agg[j];
        t.beginRow();
        t.cell(policyDisplayName(policies[j]));
        t.cell(isDescendant(policies[j]) ? "descendant" : "paper");
        t.num(geomeanIpc(a), 2);
        t.cell(formatDouble(speedup(a), 1) + "%");
        t.num(perKiloLoads(a.misspecs, a.loads), 3);
        t.num(perKiloLoads(a.waits, a.loads), 2);
        t.num(perKiloLoads(a.bypasses, a.loads), 2);
        t.cell(std::to_string(a.evictions));
        t.cell(std::to_string(a.frontier));
        t.cell(std::to_string(a.vpUses));
    }

    const uint64_t blind = misspecs("always");
    sc.check(blind > 0,
             "ALWAYS: blind speculation mis-speculates at all");
    for (const std::string key :
         {"never", "wait", "psync"})
        sc.check(misspecs(key) == 0,
                 key + ": conservative/oracle policies never "
                       "mis-speculate");
    for (const std::string key :
         {"sync", "esync", "vsync", "storeset", "counter", "vassist"})
        sc.check(misspecs(key) < blind,
                 key + ": prediction removes mis-speculations vs "
                       "blind speculation");
    sc.check(speedupOf("esync") > 0.0,
             "esync: the paper's mechanism wins overall");
    sc.check(speedupOf("psync") >= speedupOf("esync") - 2.0,
             "psync: ideal synchronization bounds the mechanism");
    for (const std::string key : {"storeset", "counter"}) {
        for (size_t j = 0; j < policies.size(); ++j) {
            if (policies[j] != key)
                continue;
            sc.check(agg[j].predicted > 0 && agg[j].waits > 0,
                     key + ": descendant predictor engages "
                           "(predicts and delays loads)");
        }
    }
    // Stock SPEC95 profiles carry no value locality, so the hybrids
    // must degenerate to their synchronization base exactly.
    sc.check(misspecs("vsync") == misspecs("esync"),
             "vsync: with zero value locality the hybrid degenerates "
             "to ESYNC");
    sc.check(misspecs("vassist") == misspecs("sync"),
             "vassist: with zero value locality the hybrid "
             "degenerates to SYNC");

    t.print(std::cout);
    std::printf("\n");

    // ---- value-locality addendum ------------------------------------
    const SimResult &vsync_r = results[results.size() - 2];
    const SimResult &vassist_r = results.back();

    TextTable vt({"policy", "IPC", "misspec", "vp uses", "vp hits",
                  "vp misses"});
    for (const auto &[key, r] :
         {std::pair<const char *, const SimResult &>{"sync", vsync_r},
          {"vassist", vassist_r}}) {
        vt.beginRow();
        vt.cell(policyDisplayName(key));
        vt.num(r.ipc(), 2);
        vt.cell(std::to_string(r.misSpeculations));
        vt.cell(std::to_string(r.valuePredUses));
        vt.cell(std::to_string(r.valuePredHits));
        vt.cell(std::to_string(r.valuePredMisses));
    }
    sc.check(vassist_r.valuePredUses > 0,
             "vassist: value prediction engages under 0.95 value "
             "locality");
    sc.check(vassist_r.valuePredHits > 0,
             "vassist: predicted values absorb violations");
    sc.check(vassist_r.ipc() >= vsync_r.ipc() * 0.98,
             "vassist: the value hybrid does not lose to its SYNC "
             "base when values repeat");

    std::printf("value-locality addendum (espresso, value stability "
                "0.95):\n");
    vt.print(std::cout);
    std::printf("\n");
    return t;
}
