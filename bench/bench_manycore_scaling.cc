/**
 * @file
 * Manycore scale-out study: the Multiscalar timing model swept to
 * 1024 PEs on both interconnects.  The paper's evaluation stops at 8
 * stages; this bench shows what its mechanisms (ARB disambiguation +
 * dependence policies) do when the ring is replaced by a 2D mesh and
 * the machine is two orders of magnitude wider, and exercises the
 * per-PE event-frontier scheduler on the idle-heavy task graphs where
 * O(active-PE) stepping matters.
 *
 * Deterministic stdout: every table value derives from simulator
 * state (IPC, violations, forwarding hops, cycle counts).  Wall-clock
 * lands only in the JSON artifact's phase_seconds (trace_generate for
 * the contexts, the standard simulate phase for the runs);
 * bench/perf's manycore1024 workload is the host-time benchmark of
 * this model.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "workloads/manycore.hh"

using namespace mdp;

namespace
{

struct WorkloadEntry
{
    const char *name;
    Trace (*make)(double, uint64_t, unsigned);
};

const WorkloadEntry kWorkloads[] = {
    {"bfs", makeBfsFrontierTrace},
    {"spmv", makeSpmvRowSplitTrace},
    {"uts", makeUtsTrace},
};

MultiscalarConfig
scalingConfig(unsigned pes, Topology topo, const std::string &policy)
{
    MultiscalarConfig cfg;
    cfg.numStages = pes;
    cfg.topology = topo;
    cfg.policyName = policy;
    // One sync slot per stage tracks the runner helper's convention;
    // capped so the 1024-PE table stays plausible hardware.
    cfg.sync.slotsPerEntry = std::min(pes, 64u);
    return cfg;
}

} // namespace

TextTable
manycoreScaling(ShapeChecks &sc)
{
    const std::vector<unsigned> kPes = {8, 64, 256, 1024};
    const std::vector<std::string> kPolicies = {"always", "sync",
                                                "storeset"};
    const uint64_t kSeed = 12345;

    const Topology kTopos[] = {Topology::Ring, Topology::Mesh};

    // One context per (pes, workload): both topologies and all
    // policies see identical inputs.  The traces are parameterized by
    // (scale, seed, num_pes), so the name-keyed context cache cannot
    // hold them; these private contexts live until the sweep ends.
    std::vector<std::unique_ptr<WorkloadContext>> contexts;
    {
        ScopedPhase phase("trace_generate");
        for (unsigned pes : kPes)
            for (const WorkloadEntry &w : kWorkloads)
                contexts.push_back(std::make_unique<WorkloadContext>(
                    w.make(benchScale(), kSeed, pes)));
    }

    ExperimentRunner<SimResult> runner;
    for (size_t p = 0; p < kPes.size(); ++p)
        for (Topology topo : kTopos)
            for (size_t wi = 0; wi < std::size(kWorkloads); ++wi)
                for (const std::string &policy : kPolicies) {
                    const WorkloadContext &ctx =
                        *contexts[p * std::size(kWorkloads) + wi];
                    MultiscalarConfig cfg =
                        scalingConfig(kPes[p], topo, policy);
                    runner.add([&ctx, cfg] {
                        return runMultiscalar(ctx, cfg);
                    });
                }
    const std::vector<SimResult> results = runner.runAll();

    TextTable t({"pes", "topo", "policy", "workload", "ipc",
                 "misspec", "fwd_hops", "cycles", "sim_cycles"});

    // The 1024-PE bfs runs under ALWAYS, one per topology.
    const SimResult *ring_bfs = nullptr, *mesh_bfs = nullptr;
    size_t idx = 0;
    for (size_t p = 0; p < kPes.size(); ++p) {
        const unsigned pes = kPes[p];
        for (Topology topo : kTopos) {
            const char *topo_name =
                topo == Topology::Ring ? "ring" : "mesh";
            for (size_t wi = 0; wi < std::size(kWorkloads); ++wi) {
                const WorkloadContext &ctx =
                    *contexts[p * std::size(kWorkloads) + wi];
                const std::string name = kWorkloads[wi].name;
                for (const std::string &policy : kPolicies) {
                    const SimResult &r = results[idx++];
                    if (pes == 1024 && name == "bfs" &&
                        policy == "always")
                        (topo == Topology::Ring ? ring_bfs : mesh_bfs) =
                            &r;

                    t.beginRow();
                    t.integer(pes);
                    t.cell(topo_name);
                    t.cell(policy);
                    t.cell(name);
                    t.num(r.ipc(), 3);
                    t.integer(r.misSpeculations);
                    t.num(r.avgForwardHops(), 2);
                    t.integer(r.cycles);
                    t.integer(r.cyclesSimulated);

                    const std::string tag = name + " " +
                                            std::to_string(pes) + "pe " +
                                            topo_name + " " + policy;
                    sc.check(r.committedTasks == ctx.tasks().numTasks(),
                             tag + ": all tasks committed");
                    sc.check(r.stageVisits <= r.stageSlots,
                             tag + ": stage visits within slot budget");
                }
            }
        }
    }

    // Topology sanity on the widest machine: dimension-ordered mesh
    // routes are never longer than ring walks, and strictly shorter
    // once forwarding distances exceed a mesh row.
    sc.check(ring_bfs->regForwards > 0,
             "1024pe bfs: cross-task register traffic exists");
    sc.check(mesh_bfs->avgForwardHops() < ring_bfs->avgForwardHops(),
             "1024pe bfs: mesh forwarding distance beats ring");

    t.print(std::cout);
    std::printf("\n");
    return t;
}
