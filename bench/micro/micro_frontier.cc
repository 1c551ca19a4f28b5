/**
 * @file
 * Microbenchmark of the per-PE event-frontier scheduler against the
 * global-scan reference it replaces, plus the sharded ARB's probe
 * path, at 8 / 256 / 1024 PEs.
 *
 * Scheduler pair: both kernels drain the *same* deterministic event
 * schedule -- a small active set re-arming at pseudo-random distances
 * over an otherwise idle machine -- and fold (cycle, id) into a
 * checksum in identical order, so the checksums must match pairwise.
 * The frontier kernel pays O(events) via the bucket wheel; the
 * reference kernel pays an O(num_pes) sweep per event cycle (the
 * nextInterestingCycle() cost shape), so the gap widens with machine
 * size.  CI gates the 1024-PE pair at >= 10x.
 *
 * ARB kernel: one identical probe stream (loads, stores, periodic
 * resets) against 8 / 256 / 1024 address-interleaved shards.  Sharding
 * is semantically invisible, so all three checksums must be equal --
 * the wall times show probe cost staying flat as banks multiply.
 *
 * Model pair: the Multiscalar processor itself at 1024 PEs on a
 * chain-heavy trace (every task's ops hang off a hub that reads the
 * tail of the task four back), once with the per-PE frontier and once
 * with the all-stage scan.  Producers issuing wake their consumers
 * across the ring, so the frontier run exercises the due walk and the
 * consumer-CSR wakes; the semantic results must match, so the two
 * checksums must be equal.
 */

#include "micro_common.hh"

#include <algorithm>
#include <vector>

#include "base/event_frontier.hh"
#include "multiscalar/arb.hh"
#include "multiscalar/processor.hh"
#include "multiscalar/task_info.hh"
#include "trace/builder.hh"
#include "trace/dep_oracle.hh"

using namespace mdp;

namespace
{

constexpr uint64_t kEvents = 150000;  ///< events drained per kernel
constexpr uint32_t kMix = 2654435761u;

/** Active-PE count for an @p n -wide machine: idle-heavy by design. */
unsigned
activeOf(unsigned n)
{
    return std::max(2u, n / 64);
}

/** Re-arm distance after an id's @p nth event (1..197 cycles). */
uint64_t
rearm(uint32_t id, uint64_t nth)
{
    return 1 + ((id * kMix + nth) % 197);
}

/** Drain the schedule through the bucketed frontier. */
uint64_t
frontierKernel(unsigned n)
{
    EventFrontier f(n);
    const unsigned active = activeOf(n);
    for (uint32_t id = 0; id < active; ++id)
        f.schedule(id, 1 + id % 7);

    uint64_t h = 0, events = 0;
    std::vector<uint32_t> due;
    while (events < kEvents) {
        uint64_t t;
        uint32_t first;
        if (!f.peekMin(t, first))
            break;
        due.clear();
        f.popDue(t, due);
        std::sort(due.begin(), due.end());
        for (uint32_t id : due) {
            h = mixChecksum(h, t ^ id);
            ++events;
            f.schedule(id, t + rearm(id, events));
        }
    }
    return mixChecksum(h, events);
}

/** Drain the same schedule via a full per-event-cycle array sweep. */
uint64_t
scanKernel(unsigned n)
{
    std::vector<uint64_t> next(n, EventFrontier::kUnscheduled);
    const unsigned active = activeOf(n);
    for (uint32_t id = 0; id < active; ++id)
        next[id] = 1 + id % 7;

    uint64_t h = 0, events = 0;
    while (events < kEvents) {
        // The reference cost shape: every idle gap is bridged by a
        // min-scan over all ids, due ids found by a second full pass.
        uint64_t t = EventFrontier::kUnscheduled;
        for (unsigned id = 0; id < n; ++id)
            t = std::min(t, next[id]);
        if (t == EventFrontier::kUnscheduled)
            break;
        for (uint32_t id = 0; id < n; ++id) {
            if (next[id] != t)
                continue;
            h = mixChecksum(h, t ^ id);
            ++events;
            next[id] = t + rearm(id, events);
        }
    }
    return mixChecksum(h, events);
}

/**
 * One fixed probe stream against @p shards ARB banks: interleaved
 * load/store executions over a scrambled address space, with periodic
 * resets so the tracked window stays bounded.  The checksum folds in
 * every observed version / violator, which sharding cannot change.
 */
uint64_t
arbKernel(unsigned shards)
{
    ShardedArb arb(shards, 64);
    uint64_t h = 0;
    for (uint64_t i = 0; i < 400000; ++i) {
        Addr addr = ((i * kMix) % 65536) * 64;
        SeqNum seq = static_cast<SeqNum>(i & 0xffffff);
        uint32_t task = static_cast<uint32_t>(i % 1024);
        SeqNum r = (i & 1)
                       ? arb.storeExecuted(addr, seq, task)
                       : arb.loadExecuted(addr, seq, task);
        h = mixChecksum(h, r);
        if ((i & 0xfff) == 0xfff) {
            h = mixChecksum(h, arb.trackedLoads());
            arb.reset();
        }
    }
    return h;
}

/**
 * Tasks of a dozen ops: a hub reading the tail of the task four back
 * (four ring hops), then a serial chain whose every op also reads the
 * hub, with a load and a store to per-task slots.  Each hub has ~10
 * consumers, and a task's chain can start only when its tail operand
 * arrives, so four wavefronts of chains cross the ring while most PEs
 * idle.
 */
Trace
chainTrace(unsigned num_tasks)
{
    TraceBuilder b("frontier_chain");
    std::vector<SeqNum> tails;
    for (unsigned t = 0; t < num_tasks; ++t) {
        b.beginTask(0x1000 + (t % 16) * 0x40);
        SeqNum hub = b.alu(0x2000, t >= 4 ? tails[t - 4] : kNoSeq);
        SeqNum x = b.load(0x2100, 0x100000 + (t % 512) * 64ULL, hub);
        for (unsigned i = 0; i < 8; ++i) {
            x = i % 3 == 2 ? b.op(OpKind::IntMul, 0x2200 + i * 4, x, hub)
                           : b.alu(0x2200 + i * 4, x, hub);
        }
        b.store(0x2300, 0x100000 + ((t + 7) % 512) * 64ULL, hub, x);
        tails.push_back(b.alu(0x2400, x, hub));
    }
    return b.take();
}

/** One 1024-PE run; the checksum leaves out the visit counters, which
 *  differ between the scheduler modes by design. */
uint64_t
chainKernel(const TraceView &view, const DepOracle &oracle,
            const TaskSet &tasks, bool frontier)
{
    MultiscalarConfig cfg;
    cfg.numStages = 1024;
    cfg.policyName = "sync";
    cfg.sync.slotsPerEntry = 64;
    cfg.perPeFrontier = frontier;
    MultiscalarProcessor proc(view, oracle, tasks, cfg);
    const SimResult r = proc.run();
    uint64_t h = mixChecksum(r.cycles, r.cyclesSimulated);
    for (uint64_t v : {r.cyclesSkipped, r.committedOps, r.regForwards,
                       r.regForwardHops, r.misSpeculations,
                       r.squashedOps, r.loadsBlockedSync})
        h = mixChecksum(h, v);
    return h;
}

} // namespace

int
main()
{
    MicroSuite suite("micro_frontier",
                     "per-PE event frontier vs global scan");

    uint64_t arb_first = 0;
    for (unsigned n : {8u, 256u, 1024u}) {
        const std::string sz = std::to_string(n);
        uint64_t fsum =
            suite.kernel("frontier_wheel_" + sz,
                         [n] { return frontierKernel(n); });
        uint64_t ssum = suite.kernel("global_scan_" + sz,
                                     [n] { return scanKernel(n); });
        suite.check(fsum == ssum,
                    sz + " PEs: frontier and scan drain identical "
                         "schedules");

        uint64_t asum = suite.kernel("arb_probe_" + sz + "shard",
                                     [n] { return arbKernel(n); });
        if (n == 8)
            arb_first = asum;
        suite.check(asum == arb_first,
                    sz + " shards: interleaving is semantically "
                         "invisible");
    }

    const Trace chain = chainTrace(2000);
    const TraceView view(chain);
    const DepOracle oracle(view);
    const TaskSet tasks(view);
    uint64_t wake = suite.kernel("chain_wake_frontier_1024", [&] {
        return chainKernel(view, oracle, tasks, true);
    });
    uint64_t scan = suite.kernel("chain_wake_scan_1024", [&] {
        return chainKernel(view, oracle, tasks, false);
    });
    suite.check(wake == scan,
                "1024 PEs: chain run identical with the frontier on "
                "and off");
    return suite.finish();
}
