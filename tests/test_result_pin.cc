/**
 * @file
 * Pinned Multiscalar results: an FNV-1a fingerprint of every SimResult
 * field, over a fixed randomized corpus, compared against constants
 * recorded before the scheduler became event-driven.
 *
 * test_frontier_equiv and test_fastforward_equiv compare one scheduler
 * mode against another.  All modes share the operand-ready lane and
 * the store-frontier cursor, so a bug in either shows up identically
 * on both sides of such a comparison; and those tests exclude
 * stageVisits, the one field a frontier due-walk bug can move on its
 * own.  This test instead holds each mode to absolute numbers,
 * including the mode-dependent stageVisits/stageSlots and the skip
 * accounting.
 *
 * The corpus covers every registry policy x ring/mesh x numStages in
 * {4, 8, 63, 64, 65, 130} (63/64/65 straddle a 64-bit bitmap word) x
 * the three scheduler modes (tick every cycle, fast-forward, per-PE
 * frontier), on traces built around high-fan-out producers with
 * aliasing loads placed between a producer and its consumers, so
 * violation squashes keep the producer and re-fetch the consumers.
 * One variant uses a zero squash penalty, which re-arms squashed
 * stages in the same cycle; another runs the intra-run readiness
 * precompute on two workers.  A small 1024-PE manycore case rides
 * along.
 *
 * The constants change only when the model's behaviour does; a pure
 * scheduling optimization must leave them alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "base/random.hh"
#include "mdp/dep_policy.hh"
#include "multiscalar/processor.hh"
#include "multiscalar/task_info.hh"
#include "trace/builder.hh"
#include "trace/dep_oracle.hh"
#include "workloads/manycore.hh"

namespace mdp
{
namespace
{

/** FNV-1a over the eight little-endian bytes of each folded value. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

void
fold(Fnv &f, const SimResult &r)
{
    for (uint64_t v :
         {r.cycles, r.cyclesSimulated, r.cyclesSkipped, r.committedOps,
          r.committedLoads, r.committedStores, r.committedTasks,
          r.misSpeculations, r.squashedOps, r.controlStalls,
          r.loadsBlockedSync, r.loadsBlockedFrontier, r.frontierReleases,
          r.syncWaitCycles, r.signalWaitCycles, r.frontierWaitCycles,
          r.regForwards, r.regForwardHops, r.stageVisits, r.stageSlots,
          r.valuePredUses, r.valuePredHits, r.valuePredMisses, r.pred.nn,
          r.pred.ny, r.pred.yn, r.pred.yy})
        f.add(v);
    const SyncStats &s = r.syncStats;
    for (uint64_t v :
         {s.loadChecks, s.loadsPredicted, s.loadsWaited, s.fullBypasses,
          s.storeChecks, s.signalsDelivered, s.storeAllocations,
          s.misSpecsRecorded, s.frontierReleases, s.squashFrees,
          s.evictionReleases})
        f.add(v);
    f.add(r.misspecLog.size());
    for (const auto &[lpc, spc] : r.misspecLog) {
        f.add(lpc);
        f.add(spc);
    }
}

/**
 * Tasks that open with a hub producer read by most of the task and by
 * the next few tasks (fan-out in the tens), followed by an aliasing
 * load and the hub's consumers behind it.  A violation on that load
 * squashes from the load: the hub survives, the consumers re-fetch and
 * must find their (already issued) producer again.  Loads and stores
 * share twenty block addresses, so violations, sync waits and
 * frontier waits are all common.
 */
Trace
hubTrace(uint64_t seed)
{
    Pcg32 rng(seed);
    TraceBuilder b("result_pin");
    const unsigned num_tasks = 10 + rng.below(14);
    std::vector<SeqNum> produced;
    std::vector<SeqNum> hubs;

    auto recent = [&](uint32_t span) {
        return produced[produced.size() - 1 -
                        rng.below(std::min<uint32_t>(
                            span, static_cast<uint32_t>(
                                      produced.size())))];
    };

    for (unsigned t = 0; t < num_tasks; ++t) {
        b.beginTask(0x1000 + (t % 6) * 0x40);
        SeqNum s1 = produced.empty() ? kNoSeq : recent(40);
        SeqNum hub = rng.below(3) == 0
                         ? b.op(OpKind::IntMul, 0x400, s1, kNoSeq)
                         : b.alu(0x404, s1, kNoSeq);
        produced.push_back(hub);
        hubs.push_back(hub);

        const unsigned ops = 8 + rng.below(28);
        for (unsigned i = 0; i < ops; ++i) {
            // Most operands read a hub (this task's or one of the last
            // four tasks'), the rest a recent op.
            SeqNum a = kNoSeq;
            SeqNum c = kNoSeq;
            const uint32_t pick = rng.below(8);
            if (pick < 5) {
                a = hubs[hubs.size() - 1 -
                         rng.below(std::min<uint32_t>(
                             4, static_cast<uint32_t>(hubs.size())))];
            } else if (pick < 7) {
                a = recent(50);
            }
            if (rng.below(4) == 0)
                c = recent(16);

            const Addr addr = 0x8000 + rng.below(20) * 0x40;
            const uint32_t kind = rng.below(12);
            SeqNum s;
            if (i == 0 || kind < 2) {
                // The load sits between the hub and its consumers.
                s = b.load(0x100 + rng.below(8) * 4, addr,
                           i == 0 ? kNoSeq : a);
            } else if (kind < 4) {
                s = b.store(0x200 + rng.below(8) * 4, addr, a, c);
                b.lastOp().valueRepeats = rng.below(2) != 0;
            } else if (kind < 5) {
                s = b.op(OpKind::IntDiv, 0x300, a, c);
            } else if (kind < 6) {
                s = b.op(OpKind::FpMul, 0x304, a, c);
            } else if (kind < 7) {
                s = b.branch(0x308, a);
            } else {
                s = b.alu(0x30c + rng.below(4) * 4, a, c);
            }
            produced.push_back(s);
        }
    }
    return b.take();
}

enum class Mode { Tick, FastForward, Frontier };

SimResult
runPinned(const TraceView &trc, const DepOracle &oracle,
          const TaskSet &tasks, const std::string &policy, Topology topo,
          unsigned stages, Mode mode, unsigned squash_penalty,
          double mispredict_rate, unsigned intra_jobs)
{
    MultiscalarConfig cfg;
    cfg.numStages = stages;
    cfg.topology = topo;
    cfg.policyName = policy;
    cfg.fastForward = mode != Mode::Tick;
    cfg.perPeFrontier = mode == Mode::Frontier;
    cfg.squashPenalty = squash_penalty;
    cfg.taskMispredictRate = mispredict_rate;
    cfg.intraJobs = intra_jobs;
    cfg.sync.slotsPerEntry = std::min(stages, 64u);
    cfg.logMisSpeculations = true;
    MultiscalarProcessor proc(trc, oracle, tasks, cfg);
    return proc.run();
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(ResultPin, RandomTracesEveryPolicyTopologyAndWidth)
{
    // One fingerprint per registry policy over the whole matrix.
    const std::map<std::string, uint64_t> pinned = {
        {"always", 0x334bfe4854d2b7e5ULL},
        {"counter", 0x75ba0875597d1840ULL},
        {"esync", 0xbb6a8091871a50f2ULL},
        {"never", 0x2ee995c93670dc23ULL},
        {"psync", 0xf2b260ebcce40971ULL},
        {"storeset", 0xb561376dfcedaeefULL},
        {"sync", 0x20d659b77155b402ULL},
        {"vassist", 0x92225de78cdaf5a0ULL},
        {"vsync", 0xd6b6068887366e80ULL},
        {"wait", 0xb723be8e1ad3f40eULL},
    };

    struct Variant
    {
        uint64_t seed;
        unsigned squashPenalty;
        double mispredictRate;
        unsigned intraJobs;
    };
    const Variant variants[] = {
        {1, 5, 0.0, 1}, {2, 5, 0.2, 1}, {3, 0, 0.0, 1}, {4, 1, 0.0, 2}};

    std::vector<Trace> traces;
    for (const Variant &v : variants)
        traces.push_back(hubTrace(v.seed));

    std::map<std::string, uint64_t> got;
    uint64_t squashes = 0;
    for (const std::string &policy : dependencePolicyNames()) {
        Fnv f;
        for (size_t i = 0; i < traces.size(); ++i) {
            TraceView view(traces[i]);
            DepOracle oracle(view);
            TaskSet tasks(view);
            for (Topology topo : {Topology::Ring, Topology::Mesh}) {
                for (unsigned stages : {4u, 8u, 63u, 64u, 65u, 130u}) {
                    for (Mode mode : {Mode::Tick, Mode::FastForward,
                                      Mode::Frontier}) {
                        SimResult r = runPinned(
                            view, oracle, tasks, policy, topo, stages,
                            mode, variants[i].squashPenalty,
                            variants[i].mispredictRate,
                            variants[i].intraJobs);
                        squashes += r.misSpeculations;
                        fold(f, r);
                    }
                }
            }
        }
        got[policy] = f.h;
    }

    for (const auto &[policy, h] : got) {
        auto it = pinned.find(policy);
        EXPECT_EQ(hex(it == pinned.end() ? 0 : it->second), hex(h))
            << "policy " << policy;
    }
    EXPECT_EQ(got.size(), pinned.size());
    // The corpus must exercise the squash path it was built for.
    EXPECT_GT(squashes, 0u);
}

TEST(ResultPin, Manycore1024)
{
    // The scaling bench's generators at a tiny scale on 1024 PEs: the
    // due bitmap spans sixteen words and most PEs stay idle.
    const uint64_t pinned = 0x51889df14b288000ULL;

    Fnv f;
    for (int gen = 0; gen < 3; ++gen) {
        Trace trc = gen == 0 ? makeBfsFrontierTrace(0.01, 12345, 256)
                  : gen == 1 ? makeSpmvRowSplitTrace(0.01, 12345, 256)
                             : makeUtsTrace(0.01, 12345, 256);
        TraceView view(trc);
        DepOracle oracle(view);
        TaskSet tasks(view);
        for (Topology topo : {Topology::Ring, Topology::Mesh}) {
            for (const char *policy : {"always", "sync", "storeset"}) {
                fold(f, runPinned(view, oracle, tasks, policy, topo, 1024,
                                  Mode::Frontier, 5, 0.0, 1));
            }
        }
    }
    EXPECT_EQ(hex(pinned), hex(f.h));
}

} // namespace
} // namespace mdp
