/**
 * @file
 * Tests for the ARB (violation detection / version tracking) and the
 * banked memory system timing model.
 */

#include <gtest/gtest.h>

#include "multiscalar/arb.hh"
#include "multiscalar/memsys.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// Arb
// --------------------------------------------------------------------

TEST(Arb, NoViolationWithoutLoads)
{
    Arb arb;
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 1), kNoSeq);
}

TEST(Arb, DetectsYoungerLoadThatMissedTheStore)
{
    Arb arb;
    // Load (seq 20, task 2) executes before store (seq 10, task 1).
    arb.loadExecuted(0x100, 20, 2);
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 1), 20u);
}

TEST(Arb, NoViolationAcrossDifferentAddresses)
{
    Arb arb;
    arb.loadExecuted(0x100, 20, 2);
    EXPECT_EQ(arb.storeExecuted(0x200, 10, 1), kNoSeq);
}

TEST(Arb, NoViolationForOlderLoad)
{
    Arb arb;
    arb.loadExecuted(0x100, 5, 0);   // load is older than the store
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 1), kNoSeq);
}

TEST(Arb, NoViolationWithinOneTask)
{
    Arb arb;
    arb.loadExecuted(0x100, 20, 1);
    // Same task: intra-task order is enforced by the core, not the ARB.
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 1), kNoSeq);
}

TEST(Arb, LoadThatSawTheStoreIsSafe)
{
    Arb arb;
    arb.storeExecuted(0x100, 10, 1);
    SeqNum version = arb.loadExecuted(0x100, 20, 2);
    EXPECT_EQ(version, 10u);
    // Re-executing the same store (squash path) must not flag the load
    // because the load's version is not older than the store.
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 1), kNoSeq);
}

TEST(Arb, OlderStoreAfterNewerVersionStillSafe)
{
    Arb arb;
    arb.storeExecuted(0x100, 15, 1);
    SeqNum version = arb.loadExecuted(0x100, 20, 2);
    EXPECT_EQ(version, 15u);
    // An older store arriving late does not violate: the load's value
    // came from a newer store.
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 0), kNoSeq);
}

TEST(Arb, ReturnsEarliestViolator)
{
    Arb arb;
    arb.loadExecuted(0x100, 30, 3);
    arb.loadExecuted(0x100, 20, 2);
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 1), 20u);
}

TEST(Arb, CommittedVersionVisibleToLaterLoads)
{
    Arb arb;
    arb.storeExecuted(0x100, 10, 1);
    arb.commitStore(0x100, 10);
    SeqNum version = arb.loadExecuted(0x100, 20, 2);
    EXPECT_EQ(version, 10u);
}

TEST(Arb, CommitLoadRemovesItFromChecks)
{
    Arb arb;
    arb.loadExecuted(0x100, 20, 2);
    arb.commitLoad(0x100, 20);
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 1), kNoSeq);
    EXPECT_EQ(arb.trackedLoads(), 0u);
}

TEST(Arb, RemoveLoadAndStoreForSquash)
{
    Arb arb;
    arb.loadExecuted(0x100, 20, 2);
    arb.removeLoad(0x100, 20);
    EXPECT_EQ(arb.storeExecuted(0x100, 10, 1), kNoSeq);

    arb.removeStore(0x100, 10);
    SeqNum version = arb.loadExecuted(0x100, 30, 3);
    EXPECT_EQ(version, kNoSeq);   // the store is gone
}

// --------------------------------------------------------------------
// MemorySystem
// --------------------------------------------------------------------

MultiscalarConfig
memConfig()
{
    MultiscalarConfig cfg;
    cfg.numStages = 4;
    return cfg;
}

TEST(MemSys, FirstAccessMissesThenHits)
{
    MemorySystem m(memConfig());
    uint64_t t1 = m.access(0x1000, 100, false);
    EXPECT_EQ(m.misses(), 1u);
    EXPECT_GE(t1, 100 + 13u);
    uint64_t t2 = m.access(0x1000, 200, false);
    EXPECT_EQ(m.hits(), 1u);
    EXPECT_EQ(t2, 200 + 2u);
}

TEST(MemSys, SameLineSharesTheFill)
{
    MemorySystem m(memConfig());
    m.access(0x1000, 100, false);
    m.access(0x1008, 200, false);   // same 64-byte block
    EXPECT_EQ(m.hits(), 1u);
    EXPECT_EQ(m.misses(), 1u);
}

TEST(MemSys, StoresCompleteQuickly)
{
    MemorySystem m(memConfig());
    uint64_t t = m.access(0x2000, 100, true);
    // Write-allocate behind a buffer: no full miss penalty.
    EXPECT_LE(t, 100 + 6u);
    uint64_t t2 = m.access(0x2000, 200, true);
    EXPECT_EQ(t2, 200 + 1u);
}

TEST(MemSys, BankContentionSerializes)
{
    MemorySystem m(memConfig());
    // Two accesses to the same bank (8 banks -> lines 8 apart) in the
    // same cycle: the second queues behind the first.
    Addr a = 0x10000;
    Addr b = a + 64ull * 8;
    uint64_t t1 = m.access(a, 0, false);
    // Warm both lines so the second round is hit-only.
    m.access(b, 0, false);
    uint64_t h1 = m.access(a, 1000, false);
    uint64_t h2 = m.access(b, 1000, false);
    EXPECT_GT(h2, h1);   // bank busy: strictly later completion
    (void)t1;
}

TEST(MemSys, BusContentionDelaysMisses)
{
    MemorySystem m(memConfig());
    // Many simultaneous misses to different banks: the shared bus
    // serializes the fills at busBusyPerMiss cycles apiece.
    uint64_t last = 0;
    for (int i = 0; i < 8; ++i)
        last = std::max(last, m.access(0x40000 + i * 64, 0, false));
    EXPECT_GE(last, 13 + 7 * 4u);
}

} // namespace
} // namespace mdp
