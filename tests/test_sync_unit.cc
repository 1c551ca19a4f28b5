/**
 * @file
 * Protocol tests for the dependence synchronization units, following
 * the working example of section 4.3 (figure 4).  Parameterized over
 * the combined (section 5.5) and split (section 4) organizations.
 */

#include <gtest/gtest.h>

#include <map>

#include "mdp/combined_sync.hh"
#include "mdp/split_sync.hh"
#include "mdp/sync_unit.hh"

namespace mdp
{
namespace
{

constexpr Addr kLd = 0x500000;
constexpr Addr kSt = 0x600000;
constexpr Addr kA = 0x8000;

/** Fixed map from instance to task PC. */
class FakeTaskPcs : public TaskPcSource
{
  public:
    std::map<uint64_t, Addr> pcs;

    Addr
    taskPc(uint64_t instance) const override
    {
        auto it = pcs.find(instance);
        return it == pcs.end() ? 0 : it->second;
    }
};

SyncUnitConfig
baseConfig()
{
    SyncUnitConfig cfg;
    cfg.numEntries = 8;
    cfg.slotsPerEntry = 4;
    cfg.mdstEntries = 16;
    cfg.initialCount = 3;   // arm on first mis-speculation
    return cfg;
}

class SyncUnitTest : public ::testing::TestWithParam<SyncOrganization>
{
  protected:
    std::unique_ptr<DepSynchronizer>
    make(SyncUnitConfig cfg = baseConfig())
    {
        return makeSynchronizer(cfg, GetParam());
    }
};

TEST_P(SyncUnitTest, ColdLoadIsNotPredicted)
{
    auto u = make();
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_FALSE(r.predicted);
    EXPECT_FALSE(r.wait);
    EXPECT_FALSE(r.fullBypass);
}

TEST_P(SyncUnitTest, LoadWaitsAfterMisSpeculation)
{
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_TRUE(r.predicted);
    EXPECT_TRUE(r.wait);
}

TEST_P(SyncUnitTest, StoreSignalWakesWaitingLoad)
{
    // Figure 4 parts (b)-(d): load first, then store.
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    ASSERT_TRUE(r.wait);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 2, 20, wake);   // instance 2 + dist 1 -> 3
    ASSERT_EQ(wake.size(), 1u);
    EXPECT_EQ(wake[0], 30u);
    EXPECT_EQ(u->stats().signalsDelivered, 1u);
}

TEST_P(SyncUnitTest, WrongInstanceStoreDoesNotWake)
{
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    u->loadReady(kLd, kA, 3, 30, nullptr);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 5, 50, wake);   // targets instance 6, not 3
    EXPECT_TRUE(wake.empty());
}

TEST_P(SyncUnitTest, StoreBeforeLoadFullBypass)
{
    // Figure 4 parts (e)-(f): store first, then load.
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 2, 20, wake);
    EXPECT_TRUE(wake.empty());
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_TRUE(r.predicted);
    EXPECT_TRUE(r.fullBypass);
    EXPECT_FALSE(r.wait);
}

TEST_P(SyncUnitTest, FullFlagSurvivesForReExecution)
{
    // A squashed load's re-execution must still see the flag.
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 2, 20, wake);
    LoadCheck first = u->loadReady(kLd, kA, 3, 30, nullptr);
    ASSERT_TRUE(first.fullBypass);
    // Same dynamic load retries (e.g. after an unrelated squash).
    LoadCheck again = u->loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_TRUE(again.fullBypass);
    EXPECT_FALSE(again.wait);
}

TEST_P(SyncUnitTest, FrontierReleaseWeakensPrediction)
{
    SyncUnitConfig cfg = baseConfig();
    cfg.frontierReleasePenalty = 3;   // one release disarms (count 3)
    auto u = make(cfg);
    u->misSpeculation(kLd, kSt, 1, 0);
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    ASSERT_TRUE(r.wait);
    u->frontierRelease(30);
    EXPECT_EQ(u->stats().frontierReleases, 1u);
    // The edge no longer predicts: the next instance speculates.
    LoadCheck r2 = u->loadReady(kLd, kA, 4, 40, nullptr);
    EXPECT_FALSE(r2.wait);
}

TEST_P(SyncUnitTest, SquashFreesWaitingLoad)
{
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    u->loadReady(kLd, kA, 3, 30, nullptr);
    u->squash(/*min_ldid=*/25, /*min_store_id=*/25);
    // The slot is free again; the store's signal goes to an empty
    // pool and is recorded as a full allocation for the re-execution.
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 2, 20, wake);
    EXPECT_TRUE(wake.empty());
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_TRUE(r.fullBypass);
}

TEST_P(SyncUnitTest, SquashKeepsOlderFullFlags)
{
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 2, 20, wake);   // store id 20 signals
    u->squash(/*min_ldid=*/25, /*min_store_id=*/25);
    // Store 20 is older than the squash point: its flag survives.
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_TRUE(r.fullBypass);
}

TEST_P(SyncUnitTest, SquashDropsYoungerFullFlags)
{
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 2, 40, wake);   // store id 40 signals
    u->squash(/*min_ldid=*/25, /*min_store_id=*/25);
    // Store 40 was squashed: the flag must be gone and the load waits.
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_TRUE(r.wait);
}

TEST_P(SyncUnitTest, MultipleDependencesWakeAfterAllSignals)
{
    // Two static stores feed the same load (section 4.4.4).
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    u->misSpeculation(kLd, kSt + 4, 1, 0);
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, nullptr);
    ASSERT_TRUE(r.wait);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 2, 20, wake);
    EXPECT_TRUE(wake.empty());   // second lookup still pending
    u->storeReady(kSt + 4, kA, 2, 21, wake);
    ASSERT_EQ(wake.size(), 1u);
    EXPECT_EQ(wake[0], 30u);
}

TEST_P(SyncUnitTest, DistinctInstancesSynchronizeIndependently)
{
    // Figure 3: multiple dynamic instances of one static edge.
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    LoadCheck r3 = u->loadReady(kLd, kA, 3, 30, nullptr);
    LoadCheck r4 = u->loadReady(kLd, kA, 4, 40, nullptr);
    ASSERT_TRUE(r3.wait);
    ASSERT_TRUE(r4.wait);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 3, 31, wake);   // targets instance 4
    ASSERT_EQ(wake.size(), 1u);
    EXPECT_EQ(wake[0], 40u);
    wake.clear();
    u->storeReady(kSt, kA, 2, 21, wake);   // targets instance 3
    ASSERT_EQ(wake.size(), 1u);
    EXPECT_EQ(wake[0], 30u);
}

TEST_P(SyncUnitTest, PathCheckSuppressesOffPathSync)
{
    SyncUnitConfig cfg = baseConfig();
    cfg.predictor = PredictorKind::PathCounter;
    auto u = make(cfg);
    FakeTaskPcs tps;
    tps.pcs[2] = 0xBAD;    // producer slot holds the wrong path
    tps.pcs[3] = 0xAAAA;
    u->misSpeculation(kLd, kSt, 1, /*store_task_pc=*/0x1234);
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, &tps);
    EXPECT_FALSE(r.wait);
}

TEST_P(SyncUnitTest, PathCheckAllowsOnPathSync)
{
    SyncUnitConfig cfg = baseConfig();
    cfg.predictor = PredictorKind::PathCounter;
    auto u = make(cfg);
    FakeTaskPcs tps;
    tps.pcs[2] = 0x1234;   // matches the recorded producing path
    u->misSpeculation(kLd, kSt, 1, 0x1234);
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, &tps);
    EXPECT_TRUE(r.wait);
}

TEST_P(SyncUnitTest, PathCheckFallsBackWhenUnstable)
{
    SyncUnitConfig cfg = baseConfig();
    cfg.predictor = PredictorKind::PathCounter;
    auto u = make(cfg);
    FakeTaskPcs tps;
    tps.pcs[2] = 0x9999;   // matches nothing recorded
    // Alternating producing paths destroy the path confidence.
    for (int i = 0; i < 8; ++i)
        u->misSpeculation(kLd, kSt, 1, i % 2 ? 0x1111 : 0x2222);
    // Unstable path -> counter-only behaviour -> sync despite mismatch.
    LoadCheck r = u->loadReady(kLd, kA, 3, 30, &tps);
    EXPECT_TRUE(r.wait);
}

TEST_P(SyncUnitTest, AddressTagScheme)
{
    SyncUnitConfig cfg = baseConfig();
    cfg.tags = TagScheme::Address;
    auto u = make(cfg);
    u->misSpeculation(kLd, kSt, 1, 0);
    LoadCheck r = u->loadReady(kLd, 0x1111, 3, 30, nullptr);
    ASSERT_TRUE(r.wait);
    std::vector<LoadId> wake;
    // A store to a different address does not signal...
    u->storeReady(kSt, 0x2222, 2, 20, wake);
    EXPECT_TRUE(wake.empty());
    // ...a store to the same address does, regardless of instance.
    u->storeReady(kSt, 0x1111, 7, 70, wake);
    ASSERT_EQ(wake.size(), 1u);
    EXPECT_EQ(wake[0], 30u);
}

TEST_P(SyncUnitTest, SignalBeforeArmedEntryStillRecorded)
{
    // Stores signal on any MDPT match, even when the counter predicts
    // "no dependence" -- the flag is simply available if needed.
    SyncUnitConfig cfg = baseConfig();
    cfg.initialCount = 2;   // below threshold: not armed yet
    auto u = make(cfg);
    u->misSpeculation(kLd, kSt, 1, 0);
    LoadCheck r0 = u->loadReady(kLd, kA, 3, 30, nullptr);
    EXPECT_FALSE(r0.wait);   // not armed
    u->misSpeculation(kLd, kSt, 1, 0);   // second misspec arms it
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 3, 35, wake);
    LoadCheck r1 = u->loadReady(kLd, kA, 4, 41, nullptr);
    EXPECT_TRUE(r1.fullBypass);
}

TEST_P(SyncUnitTest, StatsAreConsistent)
{
    auto u = make();
    u->misSpeculation(kLd, kSt, 1, 0);
    u->loadReady(kLd, kA, 3, 30, nullptr);
    std::vector<LoadId> wake;
    u->storeReady(kSt, kA, 2, 20, wake);
    const SyncStats &s = u->stats();
    EXPECT_EQ(s.misSpecsRecorded, 1u);
    EXPECT_EQ(s.loadChecks, 1u);
    EXPECT_EQ(s.loadsPredicted, 1u);
    EXPECT_EQ(s.loadsWaited, 1u);
    EXPECT_EQ(s.signalsDelivered, 1u);
    EXPECT_EQ(s.storeChecks, 1u);
}

INSTANTIATE_TEST_SUITE_P(Organizations, SyncUnitTest,
                         ::testing::Values(SyncOrganization::Combined,
                                           SyncOrganization::Split),
                         [](const auto &info) {
                             return info.param ==
                                     SyncOrganization::Combined
                                 ? "Combined"
                                 : "Split";
                         });

// --------------------------------------------------------------------
// Combined-specific behaviour
// --------------------------------------------------------------------

TEST(CombinedSync, EvictionReleasesWaitingLoads)
{
    SyncUnitConfig cfg = baseConfig();
    cfg.numEntries = 1;   // every new edge evicts the previous one
    CombinedSyncUnit u(cfg);
    u.misSpeculation(kLd, kSt, 1, 0);
    LoadCheck r = u.loadReady(kLd, kA, 3, 30, nullptr);
    ASSERT_TRUE(r.wait);
    EXPECT_EQ(u.numWaitingLoads(), 1u);
    // A different edge displaces the entry.
    u.misSpeculation(kLd + 8, kSt + 8, 1, 0);
    std::vector<LoadId> released;
    u.drainReleasedLoads(released);
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0], 30u);
    EXPECT_EQ(u.numWaitingLoads(), 0u);
}

TEST(CombinedSync, LruEvictionWithLiveSyncStateReleasesItsLoad)
{
    // Regression test for the indexed MDPT victim choice: with the
    // table full, a new edge must steal the least-recently-used entry
    // even when that entry holds live synchronization state, and the
    // owner must get the parked load back (the owner-release path).
    // The old linear victim scan picked the same entry; the O(1) LRU
    // list must not change that.
    SyncUnitConfig cfg = baseConfig();
    cfg.numEntries = 4;
    CombinedSyncUnit u(cfg);
    for (uint64_t i = 0; i < 4; ++i)
        u.misSpeculation(kLd + 16 * i, kSt + 16 * i, 1, 0);

    // Park a load on edge 0 -- its entry now carries a waiting slot.
    LoadCheck r = u.loadReady(kLd, kA, 3, 30, nullptr);
    ASSERT_TRUE(r.wait);
    EXPECT_EQ(u.numWaitingLoads(), 1u);

    // Re-touch edges 1..3 so edge 0, despite being busy, is coldest.
    for (uint64_t i = 1; i < 4; ++i)
        u.misSpeculation(kLd + 16 * i, kSt + 16 * i, 1, 0);

    // A fifth edge must evict edge 0, not any of the warm entries.
    u.misSpeculation(kLd + 64, kSt + 64, 1, 0);
    EXPECT_FALSE(u.matchesStore(kSt));
    for (uint64_t i = 1; i < 4; ++i)
        EXPECT_TRUE(u.matchesStore(kSt + 16 * i));
    EXPECT_TRUE(u.matchesStore(kSt + 64));

    // The displaced entry's parked load comes back via the release
    // queue, and the event is accounted as an eviction release.
    std::vector<LoadId> released;
    u.drainReleasedLoads(released);
    ASSERT_EQ(released.size(), 1u);
    EXPECT_EQ(released[0], 30u);
    EXPECT_EQ(u.numWaitingLoads(), 0u);
    EXPECT_EQ(u.stats().evictionReleases, 1u);
}

TEST(CombinedSync, SlotPressureScavengesStalestFull)
{
    SyncUnitConfig cfg = baseConfig();
    cfg.slotsPerEntry = 2;
    CombinedSyncUnit u(cfg);
    u.misSpeculation(kLd, kSt, 1, 0);
    std::vector<LoadId> wake;
    u.storeReady(kSt, kA, 1, 10, wake);   // full, tag 2, store 10
    u.storeReady(kSt, kA, 2, 20, wake);   // full, tag 3, store 20
    u.storeReady(kSt, kA, 3, 30, wake);   // needs a slot: evicts tag 2
    // tag 3 (store 20) must have survived.
    LoadCheck r = u.loadReady(kLd, kA, 3, 33, nullptr);
    EXPECT_TRUE(r.fullBypass);
    // tag 2 was scavenged: instance 2 would wait.
    LoadCheck r2 = u.loadReady(kLd, kA, 2, 22, nullptr);
    EXPECT_TRUE(r2.wait);
}

TEST(CombinedSync, ExposesPredictionTable)
{
    CombinedSyncUnit u(baseConfig());
    u.misSpeculation(kLd, kSt, 2, 0x42);
    const Mdpt &t = u.predictionTable();
    EXPECT_EQ(t.occupancy(), 1u);
}

} // namespace
} // namespace mdp
