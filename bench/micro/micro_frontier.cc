/**
 * @file
 * Microbenchmark of the per-PE event-frontier container against a
 * global min-scan over the same schedule, at 8 / 256 / 1024 PEs.
 *
 * Scheduler pair: both kernels drain the *same* deterministic event
 * schedule -- a small active set re-arming at pseudo-random distances
 * over an otherwise idle machine -- and fold (cycle, id) into a
 * checksum in identical order, so the checksums must match pairwise.
 * The frontier kernel pays O(events) via the bucket wheel; the scan
 * kernel pays an O(num_pes) sweep per event cycle (the cost shape of
 * a jump-target scan over every stage), so the gap widens with
 * machine size.  CI gates the 1024-PE pair at >= 10x.
 */

#include "micro_common.hh"

#include <algorithm>
#include <vector>

#include "base/event_frontier.hh"

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

} // namespace

int
main()
{
    MicroSuite suite("micro_frontier",
                     "per-PE event frontier vs global scan");

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
    }
    return suite.finish();
}
