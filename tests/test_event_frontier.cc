/**
 * @file
 * The per-PE event frontier: the container and the scheduler built on
 * it.
 *
 * Part 1 pins the EventFrontier container's semantics: exact-time
 * scheduling with lazy stale drops, earlier-only moves, deterministic
 * (t, id) ordering, and the wheel/heap split across the 64-cycle
 * horizon -- including million-cycle base snaps.
 *
 * Part 2 checks that the Multiscalar scheduler actually uses it: on a
 * machine much wider than its work, stage visits collapse far below
 * the numStages-per-cycle slot budget.  The scheduler's results are
 * pinned absolutely in test_result_pin.
 */

#include <gtest/gtest.h>

#include "base/event_frontier.hh"
#include "base/random.hh"
#include "multiscalar/processor.hh"
#include "multiscalar/task_info.hh"
#include "trace/builder.hh"
#include "trace/dep_oracle.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// EventFrontier container semantics
// --------------------------------------------------------------------

std::vector<uint32_t>
popSorted(EventFrontier &f, uint64_t now)
{
    std::vector<uint32_t> due;
    f.popDue(now, due);
    std::sort(due.begin(), due.end());
    return due;
}

TEST(EventFrontier, ScheduleSetsExactTime)
{
    EventFrontier f(4);
    EXPECT_EQ(f.scheduledCount(), 0u);
    f.schedule(2, 10);
    EXPECT_EQ(f.scheduledAt(2), 10u);
    EXPECT_EQ(f.scheduledCount(), 1u);

    // Re-scheduling replaces: later AND earlier both win.
    f.schedule(2, 30);
    EXPECT_EQ(f.scheduledAt(2), 30u);
    f.schedule(2, 5);
    EXPECT_EQ(f.scheduledAt(2), 5u);
    EXPECT_EQ(f.scheduledCount(), 1u);

    uint64_t t;
    uint32_t id;
    ASSERT_TRUE(f.peekMin(t, id));
    EXPECT_EQ(t, 5u);
    EXPECT_EQ(id, 2u);
}

TEST(EventFrontier, ScheduleEarlierOnlyMovesEarlier)
{
    EventFrontier f(2);
    f.schedule(0, 20);
    f.scheduleEarlier(0, 50);   // no-op
    EXPECT_EQ(f.scheduledAt(0), 20u);
    f.scheduleEarlier(0, 7);
    EXPECT_EQ(f.scheduledAt(0), 7u);
    // On an unscheduled id (stored == kUnscheduled) any time is
    // "earlier": it schedules.
    f.scheduleEarlier(1, 33);
    EXPECT_EQ(f.scheduledAt(1), 33u);
}

TEST(EventFrontier, UnscheduleDropsPendingEvent)
{
    EventFrontier f(3);
    f.schedule(0, 4);
    f.schedule(1, 4);
    f.unschedule(0);
    EXPECT_EQ(f.scheduledAt(0), EventFrontier::kUnscheduled);
    EXPECT_EQ(f.scheduledCount(), 1u);
    // kUnscheduled as a schedule time also cancels.
    f.schedule(1, EventFrontier::kUnscheduled);
    EXPECT_EQ(f.scheduledCount(), 0u);
    uint64_t t;
    uint32_t id;
    EXPECT_FALSE(f.peekMin(t, id));
}

TEST(EventFrontier, PopDueDrainsEverythingDue)
{
    EventFrontier f(8);
    for (uint32_t id = 0; id < 8; ++id)
        f.schedule(id, 1 + id % 3);   // times 1, 2, 3

    EXPECT_EQ(popSorted(f, 0), (std::vector<uint32_t>{}));
    EXPECT_EQ(popSorted(f, 1), (std::vector<uint32_t>{0, 3, 6}));
    // now = 3 collects both remaining time buckets at once.
    EXPECT_EQ(popSorted(f, 3), (std::vector<uint32_t>{1, 2, 4, 5, 7}));
    EXPECT_EQ(f.scheduledCount(), 0u);
}

TEST(EventFrontier, StaleHintsAreDroppedNotDelivered)
{
    EventFrontier f(4);
    f.schedule(1, 3);
    f.schedule(1, 40);   // leaves a stale hint at t=3
    EXPECT_EQ(popSorted(f, 10), (std::vector<uint32_t>{}));
    EXPECT_EQ(f.scheduledAt(1), 40u);
    EXPECT_EQ(popSorted(f, 40), (std::vector<uint32_t>{1}));
}

TEST(EventFrontier, HeapHandlesFarEventsAndBaseSnaps)
{
    EventFrontier f(4);
    // Beyond the 64-cycle wheel horizon: heap path.
    f.schedule(0, 1000000);
    f.schedule(1, 5);
    EXPECT_EQ(f.horizon(), 64u);

    uint64_t t;
    uint32_t id;
    ASSERT_TRUE(f.peekMin(t, id));
    EXPECT_EQ(t, 5u);
    EXPECT_EQ(popSorted(f, 5), (std::vector<uint32_t>{1}));

    // A million-cycle jump: the base snaps, the far event surfaces.
    ASSERT_TRUE(f.peekMin(t, id));
    EXPECT_EQ(t, 1000000u);
    EXPECT_EQ(popSorted(f, 1000000), (std::vector<uint32_t>{0}));

    // Post-snap wheel is re-centered on the new base.
    f.schedule(2, 1000001);
    EXPECT_EQ(popSorted(f, 1000001), (std::vector<uint32_t>{2}));
}

TEST(EventFrontier, PeekMinBreaksTiesById)
{
    EventFrontier f(8);
    // Both in the heap (past the horizon), tied time.
    f.schedule(5, 500);
    f.schedule(3, 500);
    uint64_t t;
    uint32_t id;
    ASSERT_TRUE(f.peekMin(t, id));
    EXPECT_EQ(t, 500u);
    EXPECT_EQ(id, 3u);
}

TEST(EventFrontier, RandomizedAgainstNaiveArray)
{
    // Differential check: the frontier against a plain stored-time
    // array with linear scans, through a random op mix.
    Pcg32 rng(99);
    const uint32_t n = 32;
    EventFrontier f(n);
    std::vector<uint64_t> naive(n, EventFrontier::kUnscheduled);
    uint64_t now = 0;

    for (int step = 0; step < 4000; ++step) {
        const uint32_t id = rng.below(n);
        switch (rng.below(4)) {
          case 0: {
              const uint64_t t = now + 1 + rng.below(200);
              f.schedule(id, t);
              naive[id] = t;
              break;
          }
          case 1: {
              const uint64_t t = now + 1 + rng.below(200);
              f.scheduleEarlier(id, t);
              naive[id] = std::min(naive[id], t);
              break;
          }
          case 2:
              f.unschedule(id);
              naive[id] = EventFrontier::kUnscheduled;
              break;
          default: {
              now += 1 + rng.below(90);
              std::vector<uint32_t> expect;
              for (uint32_t i = 0; i < n; ++i) {
                  if (naive[i] <= now) {
                      expect.push_back(i);
                      naive[i] = EventFrontier::kUnscheduled;
                  }
              }
              EXPECT_EQ(popSorted(f, now), expect) << "step " << step;
          }
        }
        uint64_t min_t = EventFrontier::kUnscheduled;
        uint32_t min_id = 0;
        for (uint32_t i = 0; i < n; ++i) {
            if (naive[i] < min_t) {
                min_t = naive[i];
                min_id = i;
            }
        }
        uint64_t t;
        uint32_t id_out;
        const bool have = f.peekMin(t, id_out);
        ASSERT_EQ(have, min_t != EventFrontier::kUnscheduled);
        if (have) {
            EXPECT_EQ(t, min_t);
            EXPECT_EQ(id_out, min_id);
        }
    }
}

// --------------------------------------------------------------------
// The scheduler on an idle-heavy machine
// --------------------------------------------------------------------

/** Aliasing memory traffic, serial latency chains and cross-task
 *  register dependences. */
Trace
randomTrace(uint64_t seed)
{
    Pcg32 rng(seed);
    TraceBuilder b("frontier_equiv");
    const unsigned num_tasks = 8 + rng.below(12);
    std::vector<SeqNum> produced;

    for (unsigned t = 0; t < num_tasks; ++t) {
        b.beginTask(0x1000 + (t % 5) * 0x40);
        const unsigned ops = 6 + rng.below(30);
        for (unsigned i = 0; i < ops; ++i) {
            SeqNum s1 = kNoSeq;
            SeqNum s2 = kNoSeq;
            if (!produced.empty() && rng.below(3) != 0)
                s1 = produced[produced.size() - 1 -
                              rng.below(std::min<uint32_t>(
                                  60, static_cast<uint32_t>(
                                          produced.size())))];
            if (!produced.empty() && rng.below(4) == 0)
                s2 = produced[produced.size() - 1 -
                              rng.below(std::min<uint32_t>(
                                  20, static_cast<uint32_t>(
                                          produced.size())))];

            const uint32_t kind = rng.below(10);
            const Addr addr = 0x8000 + rng.below(24) * 0x40;
            SeqNum s;
            if (kind < 2) {
                s = b.load(0x100 + rng.below(8) * 4, addr, s1);
            } else if (kind < 4) {
                s = b.store(0x200 + rng.below(8) * 4, addr, s1, s2);
                b.setLastValueRepeats(rng.below(2) != 0);
            } else if (kind < 5) {
                s = b.op(OpKind::IntDiv, 0x300, s1, s2);
            } else if (kind < 6) {
                s = b.op(OpKind::FpDiv, 0x304, s1, s2);
            } else if (kind < 7) {
                s = b.branch(0x308, s1);
            } else {
                s = b.alu(0x30c + rng.below(4) * 4, s1, s2);
            }
            produced.push_back(s);
        }
    }
    return b.take();
}

TEST(FrontierEquiv, IdleHeavyMachineSkipsMostStageVisits)
{
    // The point of the frontier: on a machine much wider than its
    // work, visits collapse far below one per stage per simulated
    // cycle.
    Trace trc = randomTrace(11);
    TraceView view(trc);
    DepOracle oracle(view);
    TaskSet tasks(view);
    MultiscalarConfig cfg;
    cfg.numStages = 64;
    cfg.policyName = "sync";
    cfg.sync.slotsPerEntry = 64;
    MultiscalarProcessor proc(view, oracle, tasks, cfg);
    const SimResult r = proc.run();
    EXPECT_EQ(r.committedTasks, tasks.numTasks());
    EXPECT_EQ(r.stageSlots, 64 * r.cyclesSimulated);
    EXPECT_LT(r.stageVisits * 2, r.stageSlots);
}

} // namespace
} // namespace mdp
