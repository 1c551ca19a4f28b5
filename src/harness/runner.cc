#include "harness/runner.hh"

#include <map>

#include "base/logging.hh"
#include "harness/cycle_stats.hh"
#include "harness/phase_timer.hh"
#include "multiscalar/processor.hh"
#include "workloads/suites.hh"

namespace mdp
{

WorkloadContext::WorkloadContext(const std::string &workload_name,
                                 double scale)
    : wname(workload_name)
{
    const Workload &w = findWorkload(workload_name);
    mispredict = w.profile().taskMispredictRate;

    if (auto cache = traceCacheFromEnv()) {
        const TraceCacheKey key = workloadTraceKey(w, scale);
        {
            ScopedPhase phase("trace_cache_load");
            mapped = cache->load(key);
        }
        if (!mapped) {
            ScopedPhase phase("trace_generate");
            trc = w.generate(scale);
            cache->store(key, trc); // best-effort publication
        }
    } else {
        ScopedPhase phase("trace_generate");
        trc = w.generate(scale);
    }
    view = mapped ? mapped->view() : TraceView(trc);

    {
        ScopedPhase phase("oracle_build");
        orc = std::make_unique<DepOracle>(view);
    }
    {
        ScopedPhase phase("task_set_build");
        tset = std::make_unique<TaskSet>(view);
    }
}

WorkloadContext::WorkloadContext(Trace trace,
                                 double task_mispredict_rate)
    : wname(trace.traceName()), mispredict(task_mispredict_rate),
      trc(std::move(trace)), view(trc)
{
    orc = std::make_unique<DepOracle>(view);
    tset = std::make_unique<TaskSet>(view);
}

MultiscalarConfig
makeMultiscalarConfig(const WorkloadContext &ctx, unsigned stages,
                      const std::string &policy)
{
    MultiscalarConfig cfg;
    cfg.numStages = stages;
    cfg.policyName = policy;
    cfg.taskMispredictRate = ctx.taskMispredictRate();
    cfg.sync.slotsPerEntry = stages;
    return cfg;
}

SimResult
runMultiscalar(const WorkloadContext &ctx, const MultiscalarConfig &cfg)
{
    ScopedPhase phase("simulate");
    MultiscalarProcessor proc(ctx.trace(), ctx.oracle(), ctx.tasks(),
                              cfg);
    SimResult r = proc.run();
    addCycleStats({r.cyclesSimulated, r.cyclesSkipped, r.stageVisits,
                   r.stageSlots, r.truncated ? 1u : 0u});
    return r;
}

OooResult
runOoo(const WorkloadContext &ctx, const OooConfig &cfg)
{
    ScopedPhase phase("simulate");
    OooProcessor proc(ctx.trace(), ctx.oracle(), cfg);
    OooResult r = proc.run();
    addCycleStats({r.cyclesSimulated, r.cyclesSkipped, 0, 0,
                   r.truncated ? 1u : 0u});
    return r;
}

double
speedupPct(const SimResult &base, const SimResult &test)
{
    if (base.ipc() <= 0.0)
        return 0.0;
    return (test.ipc() / base.ipc() - 1.0) * 100.0;
}

std::vector<StaticEdge>
analyzeStaticEdges(const WorkloadContext &ctx, uint64_t min_count)
{
    struct Info
    {
        uint64_t count = 0;
        std::map<uint32_t, uint64_t> dists;
        std::map<Addr, uint64_t> taskPcs;
    };
    std::map<std::pair<Addr, Addr>, Info> edges;

    const TraceView &t = ctx.trace();
    const DepOracle &o = ctx.oracle();
    for (size_t i = 0; i < o.loads().size(); ++i) {
        const SeqNum l = o.loads()[i];
        const SeqNum p = o.producers()[i];
        if (p == kNoSeq || t.taskId(p) == t.taskId(l))
            continue;
        Info &info = edges[{t.pc(l), t.pc(p)}];
        ++info.count;
        ++info.dists[t.taskId(l) - t.taskId(p)];
        ++info.taskPcs[ctx.tasks().taskPc(t.taskId(p))];
    }

    std::vector<StaticEdge> out;
    for (const auto &[key, info] : edges) {
        if (info.count < min_count)
            continue;
        StaticEdge e;
        e.ldpc = key.first;
        e.stpc = key.second;
        uint64_t best = 0;
        for (const auto &[d, c] : info.dists)
            if (c > best) {
                best = c;
                e.dist = d;
            }
        best = 0;
        for (const auto &[pc, c] : info.taskPcs)
            if (c > best) {
                best = c;
                e.storeTaskPc = pc;
            }
        out.push_back(e);
    }
    return out;
}

} // namespace mdp
