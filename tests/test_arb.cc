/**
 * @file
 * Tests for the ARB (violation detection / version tracking) and the
 * banked memory system timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "base/random.hh"
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

/** The ARB as flat vector scans: one record per executed load or
 *  in-flight store, every query a full pass. */
class NaiveArb
{
  public:
    struct Rec
    {
        Addr addr;
        SeqNum seq;
        SeqNum version;
        uint32_t task;
    };

    std::vector<Rec> loads;
    std::vector<Rec> stores;
    std::map<Addr, SeqNum> committed;

    SeqNum
    loadExecuted(Addr addr, SeqNum load, uint32_t task)
    {
        auto cv = committed.find(addr);
        SeqNum version = cv == committed.end() ? kNoSeq : cv->second;
        for (const Rec &r : stores)
            if (r.addr == addr && r.seq < load &&
                (version == kNoSeq || r.seq > version))
                version = r.seq;
        loads.push_back({addr, load, version, task});
        return version;
    }

    SeqNum
    findViolator(Addr addr, SeqNum store, uint32_t task) const
    {
        SeqNum violator = kNoSeq;
        for (const Rec &r : loads)
            if (r.addr == addr && r.seq > store && r.task > task &&
                (r.version == kNoSeq || r.version < store))
                violator = std::min(violator, r.seq);
        return violator;
    }

    SeqNum
    storeExecuted(Addr addr, SeqNum store, uint32_t task)
    {
        SeqNum violator = findViolator(addr, store, task);
        stores.push_back({addr, store, kNoSeq, task});
        return violator;
    }

    void
    refreshLoadVersion(Addr addr, SeqNum load, SeqNum version)
    {
        for (Rec &r : loads)
            if (r.addr == addr && r.seq == load &&
                (r.version == kNoSeq || r.version < version))
                r.version = version;
    }

    void
    removeLoad(Addr addr, SeqNum load)
    {
        std::erase_if(loads, [&](const Rec &r) {
            return r.addr == addr && r.seq == load;
        });
    }

    void
    removeStore(Addr addr, SeqNum store)
    {
        std::erase_if(stores, [&](const Rec &r) {
            return r.addr == addr && r.seq == store;
        });
    }

    void
    commitStore(Addr addr, SeqNum store)
    {
        removeStore(addr, store);
        auto cv = committed.find(addr);
        if (cv == committed.end() || cv->second < store)
            committed[addr] = store;
    }
};

TEST(Arb, RandomizedAgainstNaiveReference)
{
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        Pcg32 rng(seed);
        Arb arb;
        NaiveArb ref;
        for (int step = 0; step < 600; ++step) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed
                                              << " step " << step);
            const Addr addr = 0x100 + 8 * rng.below(4);
            const SeqNum seq = rng.below(64);
            const uint32_t task = seq / 8;
            // Most commits, removals and refreshes name a tracked
            // record, as the models' do; the rest probe misses.
            NaiveArb::Rec l{addr, seq, 0, task};
            if (rng.below(4) != 0 && !ref.loads.empty())
                l = ref.loads[rng.below(ref.loads.size())];
            NaiveArb::Rec st{addr, seq, 0, task};
            if (rng.below(4) != 0 && !ref.stores.empty())
                st = ref.stores[rng.below(ref.stores.size())];
            switch (rng.below(9)) {
              case 0:
                ASSERT_EQ(arb.loadExecuted(addr, seq, task),
                          ref.loadExecuted(addr, seq, task));
                break;
              case 1:
                // The same load executed again before it is removed.
                ASSERT_EQ(arb.loadExecuted(l.addr, l.seq, l.task),
                          ref.loadExecuted(l.addr, l.seq, l.task));
                break;
              case 2:
                ASSERT_EQ(arb.storeExecuted(addr, seq, task),
                          ref.storeExecuted(addr, seq, task));
                break;
              case 3:
                ASSERT_EQ(arb.findViolator(addr, seq, task),
                          ref.findViolator(addr, seq, task));
                break;
              case 4: {
                const SeqNum version = rng.below(64);
                arb.refreshLoadVersion(l.addr, l.seq, version);
                ref.refreshLoadVersion(l.addr, l.seq, version);
                break;
              }
              case 5:
                arb.commitLoad(l.addr, l.seq);
                ref.removeLoad(l.addr, l.seq);
                break;
              case 6:
                arb.removeLoad(l.addr, l.seq);
                ref.removeLoad(l.addr, l.seq);
                break;
              case 7:
                arb.commitStore(st.addr, st.seq);
                ref.commitStore(st.addr, st.seq);
                break;
              default:
                arb.removeStore(st.addr, st.seq);
                ref.removeStore(st.addr, st.seq);
                break;
            }
            ASSERT_EQ(arb.trackedLoads(), ref.loads.size());
        }
    }
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
