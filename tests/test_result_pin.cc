/**
 * @file
 * Pinned timing-model results: an FNV-1a fingerprint of every
 * SimResult and OooResult field, over a fixed randomized corpus,
 * compared against recorded constants.
 *
 * Each model has one scheduler, so there is no second mode to compare
 * against; these absolute numbers are the reference.  They include the
 * scheduling-loop accounting (cyclesSimulated, cyclesSkipped,
 * stageVisits, stageSlots), which a due-walk or jump-target bug can
 * move while leaving the committed work alone.
 *
 * The Multiscalar corpus covers every registry policy x ring/mesh x
 * numStages in {4, 8, 63, 64, 65, 130} (63/64/65 straddle a 64-bit
 * bitmap word), on traces built around high-fan-out producers with
 * aliasing loads placed between a producer and its consumers, so
 * violation squashes keep the producer and re-fetch the consumers.
 * One variant uses a zero squash penalty, which re-arms squashed
 * stages in the same cycle.  A small 1024-PE manycore case rides
 * along.  The split and distributed MDPT/MDST organizations run the
 * MDPT-backed policies on the same traces with deliberately small
 * tables.  The OoO corpus runs the same traces under every registry
 * policy at windows of 32 and 128.
 *
 * The constants change only when a model's behaviour does; a pure
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
#include "ooo/ooo_model.hh"
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

void
fold(Fnv &f, const OooResult &r)
{
    for (uint64_t v :
         {r.cycles, r.cyclesSimulated, r.cyclesSkipped, r.committedOps,
          r.committedLoads, r.misSpeculations, r.squashedOps,
          r.loadsBlocked, r.frontierReleases})
        f.add(v);
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
                b.setLastValueRepeats(rng.below(2) != 0);
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

/**
 * Tasks of widely varying length (2 to 90 ops) whose operands reach
 * back anywhere in the trace: a third of the sources lie farther
 * behind their consumer than any span of in-flight tasks, so their
 * producers have long committed when the consumer is fetched, and at
 * three cycles per ring hop their values still arrive after that
 * fetch.  Every fifth op reads one producer through both operands.
 * Each task opens with a load that aliases earlier stores, followed by
 * producers that the next tasks read: a violation on that load
 * squashes the producers, and their re-issue must reach consumers in
 * younger tasks that are already assigned, some fetched and some not.
 */
Trace
farTrace(uint64_t seed)
{
    Pcg32 rng(seed);
    TraceBuilder b("result_pin_far");
    const unsigned num_tasks = 30 + rng.below(20);
    std::vector<SeqNum> produced;
    std::vector<SeqNum> lastTask;

    for (unsigned t = 0; t < num_tasks; ++t) {
        b.beginTask(0x2000 + (t % 5) * 0x40);
        const unsigned ops =
            rng.below(4) == 0 ? 40 + rng.below(50) : 2 + rng.below(12);
        std::vector<SeqNum> thisTask;
        for (unsigned i = 0; i < ops; ++i) {
            auto pick = [&]() -> SeqNum {
                if (produced.empty())
                    return kNoSeq;
                const uint32_t n = static_cast<uint32_t>(produced.size());
                const uint32_t r = rng.below(6);
                if (r < 2)
                    return produced[rng.below(n)];       // anywhere
                if (r < 4 && !lastTask.empty())
                    return lastTask[rng.below(static_cast<uint32_t>(
                        lastTask.size()))];              // previous task
                if (r < 5)
                    return produced[n - 1 - rng.below(std::min(n, 8u))];
                return kNoSeq;
            };
            SeqNum a = pick();
            SeqNum c = rng.below(5) == 0 ? a : pick();
            const Addr addr = 0xa000 + rng.below(12) * 0x40;
            const uint32_t kind = rng.below(10);
            SeqNum s;
            if (i == 0 || kind < 2) {
                s = b.load(0x500 + rng.below(6) * 4, addr,
                           i == 0 ? kNoSeq : a);
            } else if (kind < 4) {
                s = b.store(0x600 + rng.below(6) * 4, addr, a, c);
                b.setLastValueRepeats(rng.below(3) == 0);
            } else if (kind < 5) {
                s = b.op(OpKind::IntMul, 0x700, a, c);
            } else {
                s = b.alu(0x704 + rng.below(4) * 4, a, c);
            }
            produced.push_back(s);
            thisTask.push_back(s);
        }
        lastTask = std::move(thisTask);
    }
    return b.take();
}

SimResult
runPinned(const TraceView &trc, const DepOracle &oracle,
          const TaskSet &tasks, const std::string &policy, Topology topo,
          unsigned stages, unsigned squash_penalty,
          double mispredict_rate)
{
    MultiscalarConfig cfg;
    cfg.numStages = stages;
    cfg.topology = topo;
    cfg.policyName = policy;
    cfg.squashPenalty = squash_penalty;
    cfg.taskMispredictRate = mispredict_rate;
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
        {"always", 0x2d00baf4ab5dad0fULL},
        {"counter", 0xb2da50c3731ab3daULL},
        {"esync", 0x2f8e5f0f9b7aa54cULL},
        {"never", 0x72480c414b8be6b1ULL},
        {"psync", 0xcf5ed75841d3462bULL},
        {"storeset", 0xe206a47d9b558033ULL},
        {"sync", 0x476543d9da37cb8aULL},
        {"vassist", 0x197b6ed6d8ae4e28ULL},
        {"vsync", 0x04bd6cfe5920cb06ULL},
        {"wait", 0x9e2bbd11e8b423b4ULL},
    };

    struct Variant
    {
        uint64_t seed;
        unsigned squashPenalty;
        double mispredictRate;
    };
    const Variant variants[] = {
        {1, 5, 0.0}, {2, 5, 0.2}, {3, 0, 0.0}, {4, 1, 0.0}};

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
                    SimResult r = runPinned(view, oracle, tasks, policy,
                                            topo, stages,
                                            variants[i].squashPenalty,
                                            variants[i].mispredictRate);
                    squashes += r.misSpeculations;
                    fold(f, r);
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

TEST(ResultPin, FarSourcesAndReissuedProducers)
{
    // Three cycles per ring hop: a committed producer's value still
    // lands after its far consumer is fetched.
    const std::map<std::string, uint64_t> pinned = {
        {"always", 0x6e4678594bb966c8ULL},
        {"esync", 0x1c37e008c62def60ULL},
        {"psync", 0xda703fd2eb2bcb82ULL},
    };

    std::vector<Trace> traces;
    for (uint64_t seed : {11, 12, 13})
        traces.push_back(farTrace(seed));

    // The corpus must hold sources beyond every span of eight
    // consecutive tasks, and operands read twice from one producer.
    uint64_t far = 0;
    uint64_t twice = 0;
    for (const Trace &trc : traces) {
        TraceView view(trc);
        TaskSet tasks(view);
        SeqNum span = 0;
        for (uint32_t t = 0; t + 8 <= tasks.numTasks(); ++t)
            span = std::max(span, tasks.taskEnd(t + 7) - tasks.taskStart(t));
        for (SeqNum s = 0; s < view.size(); ++s) {
            far += view.src1(s) != kNoSeq && s - view.src1(s) > span;
            twice += view.src1(s) != kNoSeq && view.src1(s) == view.src2(s);
        }
    }
    EXPECT_GT(far, 0u);
    EXPECT_GT(twice, 0u);

    std::map<std::string, uint64_t> got;
    uint64_t squashes = 0;
    for (const auto &entry : pinned) {
        const std::string &policy = entry.first;
        Fnv f;
        for (const Trace &trc : traces) {
            TraceView view(trc);
            DepOracle oracle(view);
            TaskSet tasks(view);
            for (Topology topo : {Topology::Ring, Topology::Mesh}) {
                for (unsigned stages : {8u, 64u}) {
                    MultiscalarConfig cfg;
                    cfg.numStages = stages;
                    cfg.topology = topo;
                    cfg.policyName = policy;
                    cfg.ringHopLatency = 3;
                    cfg.sync.slotsPerEntry = stages;
                    cfg.logMisSpeculations = true;
                    MultiscalarProcessor proc(view, oracle, tasks, cfg);
                    SimResult r = proc.run();
                    squashes += r.misSpeculations;
                    fold(f, r);
                }
            }
        }
        got[policy] = f.h;
    }

    for (const auto &[policy, h] : got)
        EXPECT_EQ(hex(pinned.at(policy)), hex(h)) << "policy " << policy;
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
                                  5, 0.0));
            }
        }
    }
    EXPECT_EQ(hex(pinned), hex(f.h));
}

TEST(ResultPin, SyncOrganizations)
{
    // The split (MDPT + MDST pool) and distributed (per-stage copies)
    // organizations, under both instance-tag schemes, for every
    // policy that builds an MDPT.  Eight MDPT entries and a four-entry
    // MDST keep both tables under pressure, and an initial count at the
    // threshold arms an edge on its first mis-speculation, so loads
    // wait often enough that full-entry scavenging and forced eviction
    // of waiting entries both run.
    const std::map<std::string, uint64_t> pinned = {
        {"esync", 0xe1a8faa4a9e69f39ULL},
        {"sync", 0x65b5379ce1120b78ULL},
        {"vassist", 0x930d62313bab30beULL},
        {"vsync", 0xa88ba5720c861c89ULL},
    };

    std::vector<Trace> traces;
    for (uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8})
        traces.push_back(hubTrace(seed));

    std::map<std::string, uint64_t> got;
    uint64_t eviction_releases = 0;
    for (const auto &entry : pinned) {
        const std::string &policy = entry.first;
        Fnv f;
        for (const Trace &trc : traces) {
            TraceView view(trc);
            DepOracle oracle(view);
            TaskSet tasks(view);
            for (SyncOrganization org : {SyncOrganization::Split,
                                         SyncOrganization::Distributed}) {
                for (TagScheme tags :
                     {TagScheme::Distance, TagScheme::Address}) {
                    for (unsigned stages : {4u, 8u}) {
                        MultiscalarConfig cfg;
                        cfg.numStages = stages;
                        cfg.policyName = policy;
                        cfg.organization = org;
                        cfg.sync.tags = tags;
                        cfg.sync.slotsPerEntry = stages;
                        cfg.sync.numEntries = 8;
                        cfg.sync.mdstEntries = 4;
                        cfg.sync.initialCount = 3;
                        cfg.logMisSpeculations = true;
                        MultiscalarProcessor proc(view, oracle, tasks,
                                                  cfg);
                        SimResult r = proc.run();
                        eviction_releases +=
                            r.syncStats.evictionReleases;
                        fold(f, r);
                    }
                }
            }
        }
        got[policy] = f.h;
    }

    for (const auto &[policy, h] : got)
        EXPECT_EQ(hex(pinned.at(policy)), hex(h)) << "policy " << policy;
    // The small pools must force waiting entries out.
    EXPECT_GT(eviction_releases, 0u);
}

TEST(ResultPin, OooEveryPolicyAndWindow)
{
    // One fingerprint per registry policy over the hub corpus.
    const std::map<std::string, uint64_t> pinned = {
        {"always", 0xb9ba643409c21339ULL},
        {"counter", 0x00457bdf36ecdbdbULL},
        {"esync", 0xb9ba643409c21339ULL},
        {"never", 0xed65102955d8ff6aULL},
        {"psync", 0xb4dabec1a513b8c8ULL},
        {"storeset", 0x7cc4d78b5b06e8a0ULL},
        {"sync", 0xb9ba643409c21339ULL},
        {"vassist", 0xb9ba643409c21339ULL},
        {"vsync", 0xb9ba643409c21339ULL},
        {"wait", 0x6fdedf028df8fa8bULL},
    };

    std::map<std::string, uint64_t> got;
    uint64_t squashes = 0;
    for (const std::string &policy : dependencePolicyNames()) {
        Fnv f;
        for (uint64_t seed : {1, 2, 3, 4}) {
            Trace trc = hubTrace(seed);
            TraceView view(trc);
            DepOracle oracle(view);
            for (unsigned window : {32u, 128u}) {
                OooConfig cfg;
                cfg.windowSize = window;
                cfg.policyName = policy;
                OooProcessor proc(view, oracle, cfg);
                OooResult r = proc.run();
                squashes += r.misSpeculations;
                fold(f, r);
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
    EXPECT_GT(squashes, 0u);
}

} // namespace
} // namespace mdp
