// mdp-lint: allow(bench-discipline): traces are parameterized by
// (scale, seed, num_pes), so the name-keyed context cache cannot hold
// them; each is generated once per PE count and reused across rows.
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
 * lands only in the JSON artifact's phase_seconds (one sim_<pes>pe_
 * <topo> phase per sweep group); bench/perf's manycore1024 workload
 * is the host-time benchmark of this model.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "multiscalar/processor.hh"
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

int
main()
{
    banner("Manycore scaling: ring vs mesh, 8..1024 PEs",
           "Moshovos et al., ISCA'97, scaled beyond Table 2");

    const std::vector<unsigned> kPes = {8, 64, 256, 1024};
    const std::vector<std::string> kPolicies = {"always", "sync",
                                                "storeset"};
    const uint64_t kSeed = 12345;

    TextTable t({"pes", "topo", "policy", "workload", "ipc",
                 "misspec", "fwd_hops", "cycles", "sim_cycles"});
    ShapeChecks sc;

    for (unsigned pes : kPes) {
        // One trace per (workload, pes): both topologies and all
        // policies see identical inputs.
        std::vector<Trace> traces;
        {
            ScopedPhase phase("trace_generate");
            for (const WorkloadEntry &w : kWorkloads)
                traces.push_back(w.make(benchScale(), kSeed, pes));
        }

        for (Topology topo : {Topology::Ring, Topology::Mesh}) {
            const char *topo_name =
                topo == Topology::Ring ? "ring" : "mesh";
            ScopedPhase phase("sim_" + std::to_string(pes) + "pe_" +
                              topo_name);

            for (size_t wi = 0; wi < traces.size(); ++wi) {
                TraceView view(traces[wi]);
                DepOracle oracle(view);
                TaskSet tasks(view);

                for (const std::string &policy : kPolicies) {
                    MultiscalarConfig cfg =
                        scalingConfig(pes, topo, policy);
                    MultiscalarProcessor proc(view, oracle, tasks,
                                              cfg);
                    SimResult r = proc.run();
                    addCycleStats(r.cyclesSimulated, r.cyclesSkipped,
                                  r.stageVisits, r.stageSlots);

                    t.beginRow();
                    t.integer(pes);
                    t.cell(topo_name);
                    t.cell(policy);
                    t.cell(kWorkloads[wi].name);
                    t.num(r.ipc(), 3);
                    t.integer(r.misSpeculations);
                    t.num(r.avgForwardHops(), 2);
                    t.integer(r.cycles);
                    t.integer(r.cyclesSimulated);

                    sc.check(r.committedTasks == tasks.numTasks(),
                             std::string(kWorkloads[wi].name) + " " +
                                 std::to_string(pes) + "pe " +
                                 topo_name + " " + policy +
                                 ": all tasks committed");
                    sc.check(r.stageVisits <= r.stageSlots,
                             std::string(kWorkloads[wi].name) + " " +
                                 std::to_string(pes) + "pe " +
                                 topo_name + " " + policy +
                                 ": stage visits within slot budget");
                }
            }
        }
    }

    // Topology sanity on the widest machine: dimension-ordered mesh
    // routes are never longer than ring walks, and strictly shorter
    // once forwarding distances exceed a mesh row.  Re-run one
    // configuration pair explicitly so the check does not depend on
    // table parsing.
    {
        Trace trc = makeBfsFrontierTrace(benchScale(), kSeed, 1024);
        TraceView view(trc);
        DepOracle oracle(view);
        TaskSet tasks(view);
        MultiscalarConfig ring_cfg =
            scalingConfig(1024, Topology::Ring, "always");
        MultiscalarConfig mesh_cfg =
            scalingConfig(1024, Topology::Mesh, "always");
        SimResult ring_r =
            MultiscalarProcessor(view, oracle, tasks, ring_cfg).run();
        SimResult mesh_r =
            MultiscalarProcessor(view, oracle, tasks, mesh_cfg).run();
        sc.check(ring_r.regForwards > 0,
                 "1024pe bfs: cross-task register traffic exists");
        sc.check(mesh_r.avgForwardHops() < ring_r.avgForwardHops(),
                 "1024pe bfs: mesh forwarding distance beats ring");
    }

    t.print(std::cout);
    std::printf("\n");
    return finishBench("manycore_scaling",
                       "Moshovos et al., ISCA'97, scaled beyond "
                       "Table 2",
                       sc, t);
}
