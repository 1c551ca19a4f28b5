/**
 * @file
 * The timing models' speculation bookkeeping (the ARB, the parked-load
 * wait lists, the issue scan) must not allocate per event.  A counting
 * global operator new sees every heap allocation made inside run();
 * the count for one workload at 4x the scale may exceed the count at
 * 1x only by a few table and pool doublings, never by a per-op term.
 *
 * This is its own binary: the replaced operator new is process-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "harness/runner.hh"
#include "multiscalar/processor.hh"
#include "ooo/ooo_model.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<size_t> allocations{0};

void *
countedAlloc(std::size_t n) noexcept
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
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
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
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
multiscalarAllocations(const std::string &policy, double scale)
{
    WorkloadContext ctx("compress", scale);
    MultiscalarConfig cfg = makeMultiscalarConfig(ctx, 8, policy);
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
    for (const char *policy : {"always", "psync", "storeset"}) {
        const size_t small = oooAllocations(policy, kScale);
        const size_t large = oooAllocations(policy, 4 * kScale);
        EXPECT_LE(large, small + kSlack)
            << policy << ": " << small << " -> " << large;
    }
}

TEST(AllocBound, MultiscalarRunDoesNotAllocatePerOp)
{
    for (const char *policy : {"always", "psync"}) {
        const size_t small = multiscalarAllocations(policy, kScale);
        const size_t large = multiscalarAllocations(policy, 4 * kScale);
        EXPECT_LE(large, small + kSlack)
            << policy << ": " << small << " -> " << large;
    }
}

} // namespace
} // namespace mdp
