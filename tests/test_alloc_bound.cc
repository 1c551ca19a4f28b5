/**
 * @file
 * The timing models' speculation bookkeeping (the ARB, the parked-load
 * wait lists, the synchronizers' pending loads, the issue scan) must
 * not allocate per event.  A counting global operator new sees every
 * heap allocation made inside run(); the count for one workload at 4x
 * the scale may exceed the count at 1x only by a few table and pool
 * doublings, never by a per-op term.
 *
 * The same operators track live heap bytes, which bounds what the
 * per-trace analyses (DepOracle, TaskSet) keep: state per memory op
 * and per task, plus a few bits per op.
 *
 * This is its own binary: the replaced operator new is process-wide.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "harness/runner.hh"
#include "multiscalar/processor.hh"
#include "ooo/ooo_model.hh"
#include "workloads/suites.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<size_t> allocations{0};
std::atomic<long long> liveBytes{0};
/** High-water mark of liveBytes; a test lowers it to start a window. */
std::atomic<long long> peakBytes{0};

void *
countedAlloc(std::size_t n) noexcept
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (p) {
        const auto size = static_cast<long long>(malloc_usable_size(p));
        const long long now =
            liveBytes.fetch_add(size, std::memory_order_relaxed) + size;
        long long peak = peakBytes.load(std::memory_order_relaxed);
        while (now > peak &&
               !peakBytes.compare_exchange_weak(peak, now,
                                                std::memory_order_relaxed)) {
        }
    }
    return p;
}

void
countedFree(void *p) noexcept
{
    if (p)
        liveBytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                            std::memory_order_relaxed);
    std::free(p);
}

void *
countedAllocOrThrow(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every form that pairs with the plain deletes, nothrow included, so
// no allocation escapes the count or reaches a sanitizer's own
// operator new.
void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace mdp
{
namespace
{

/** Heap allocations made while @p run executes. */
template <class Run>
size_t
allocationsIn(Run &&run)
{
    allocations = 0;
    counting = true;
    run();
    counting = false;
    return allocations;
}

constexpr double kScale = 0.02;

/**
 * Room for the doublings 4x the work may add: the committed-version
 * table grows with the footprint (two vectors per doubling), and a
 * window-sized pool or a store set's waiter list may reach a larger
 * peak.  The parent layout allocated thousands more at 4x.
 */
constexpr size_t kSlack = 12;

size_t
oooAllocations(const std::string &policy, double scale)
{
    WorkloadContext ctx("compress", scale);
    OooConfig cfg;
    cfg.windowSize = 128;
    cfg.policyName = policy;
    OooProcessor proc(ctx.trace(), ctx.oracle(), cfg);
    OooResult r;
    const size_t n = allocationsIn([&] { r = proc.run(); });
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.committedOps, ctx.trace().size());
    return n;
}

size_t
multiscalarAllocations(const std::string &policy, double scale,
                       SyncOrganization org = SyncOrganization::Combined)
{
    WorkloadContext ctx("compress", scale);
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, policy);
    cfg.organization = org;
    MultiscalarProcessor proc(ctx.trace(), ctx.oracle(), ctx.tasks(),
                              cfg);
    SimResult r;
    const size_t n = allocationsIn([&] { r = proc.run(); });
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.committedOps, ctx.trace().size());
    return n;
}

TEST(AllocBound, OooRunDoesNotAllocatePerOp)
{
    for (const char *policy :
         {"always", "psync", "storeset", "esync", "sync"}) {
        const size_t small = oooAllocations(policy, kScale);
        const size_t large = oooAllocations(policy, 4 * kScale);
        EXPECT_LE(large, small + kSlack)
            << policy << ": " << small << " -> " << large;
    }
}

TEST(AllocBound, MultiscalarRunDoesNotAllocatePerOp)
{
    for (const char *policy : {"always", "psync", "esync", "sync"}) {
        const size_t small = multiscalarAllocations(policy, kScale);
        const size_t large = multiscalarAllocations(policy, 4 * kScale);
        EXPECT_LE(large, small + kSlack)
            << policy << ": " << small << " -> " << large;
    }
    // The split organization's pending loads and frontier releases.
    // (The distributed one doubles tables across its per-stage copies,
    // which this slack does not cover.)
    for (const char *policy : {"esync", "sync"}) {
        const size_t small = multiscalarAllocations(
            policy, kScale, SyncOrganization::Split);
        const size_t large = multiscalarAllocations(
            policy, 4 * kScale, SyncOrganization::Split);
        EXPECT_LE(large, small + kSlack)
            << "split " << policy << ": " << small << " -> " << large;
    }
}

TEST(AllocBound, MultiscalarStateIsPerOpPlusInFlightRing)
{
    // From construction through run(), a Multiscalar processor keeps
    // a completion time and a status word per op (10 B), plus
    // operand-ready and consumer-list state (20 B) per slot of a ring
    // sized to the ops of numStages consecutive tasks.  The rest of
    // the per-slot constant covers what the configuration and the
    // footprint size -- memory-system tags, ARB, synchronizer -- which
    // takes under 180 B per slot at these scales.  A per-op consumer
    // table or operand-ready lane breaks the bound.
    constexpr unsigned kStages = 8;
    constexpr uint64_t kPerSlot = 256;
    for (double scale : {kScale, 4 * kScale}) {
        WorkloadContext ctx("compress", scale);
        const TaskSet &tasks = ctx.tasks();
        (void)ctx.oracle();
        MultiscalarConfig cfg = makeMultiscalarConfig(ctx, kStages,
                                                      "esync");
        const uint64_t ops = ctx.trace().size();
        SeqNum span = 1;
        for (uint32_t t = kStages; t <= tasks.numTasks(); ++t)
            span = std::max(span, tasks.taskStart(t) -
                                      tasks.taskStart(t - kStages));
        const uint64_t ring = std::bit_ceil(span);

        const long long before = liveBytes;
        peakBytes = before;
        SimResult r;
        {
            MultiscalarProcessor proc(ctx.trace(), ctx.oracle(), tasks,
                                      cfg);
            r = proc.run();
        }
        const long long peak = peakBytes - before;
        EXPECT_EQ(r.committedOps, ops);
        const uint64_t bound = 10 * ops + kPerSlot * ring;
        EXPECT_LE(static_cast<uint64_t>(peak), bound)
            << "peak " << peak << " B at scale " << scale << ": " << ops
            << " ops, ring of " << ring << " slots";
    }
}

TEST(AllocBound, TraceAnalysesKeepStatePerMemoryOp)
{
    // The oracle keeps a list entry per memory op and a producer per
    // load (at most 8 B per memory op), plus a load bitmap and a
    // 32-bit rank per 64 ops (1.5 bits per op); the task set keeps its
    // bounds, task PCs and two list offsets (20 B per task).  A
    // producer slot per op, or a second copy of the lists, breaks the
    // bound.
    for (double scale : {kScale, 4 * kScale}) {
        const Trace trace = findWorkload("compress").generate(scale);
        const TraceStats ts = trace.stats();
        const long long before = liveBytes;
        auto oracle = std::make_unique<DepOracle>(trace);
        auto tasks = std::make_unique<TaskSet>(trace);
        const long long kept = liveBytes - before;

        const uint64_t mem_ops = ts.numLoads + ts.numStores;
        const uint64_t bound = 8 * mem_ops + ts.numOps * 3 / 16 +
                               20 * ts.numTasks + 4096;
        EXPECT_LE(static_cast<uint64_t>(kept), bound)
            << "kept " << kept << " B at scale " << scale << ": "
            << ts.numOps << " ops, " << mem_ops << " memory ops, "
            << ts.numTasks << " tasks";
    }
}

} // namespace
} // namespace mdp
