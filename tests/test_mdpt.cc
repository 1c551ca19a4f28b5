/**
 * @file
 * Unit tests for the Memory Dependence Prediction Table.
 */

#include <gtest/gtest.h>

#include "mdp/mdpt.hh"

namespace mdp
{
namespace
{

SyncUnitConfig
smallConfig(size_t entries = 4)
{
    SyncUnitConfig cfg;
    cfg.numEntries = entries;
    cfg.counterBits = 3;
    cfg.threshold = 3;
    cfg.initialCount = 3;   // arm immediately (simplifies unit tests)
    return cfg;
}

TEST(Mdpt, AllocatesOnMisSpeculation)
{
    Mdpt t(smallConfig());
    auto res = t.recordMisSpeculation(0x10, 0x20, 1, 0x1000);
    EXPECT_FALSE(res.evictedValid);
    const auto &e = t.entry(res.index);
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.ldpc, 0x10u);
    EXPECT_EQ(e.stpc, 0x20u);
    EXPECT_EQ(e.dist, 1u);
    EXPECT_EQ(e.storeTaskPc, 0x1000u);
    EXPECT_EQ(t.occupancy(), 1u);
}

TEST(Mdpt, NewEntryPredictsAtInitialCount)
{
    Mdpt t(smallConfig());
    auto res = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    EXPECT_TRUE(t.predicts(res.index));
}

TEST(Mdpt, InitialCountBelowThresholdNeedsSecondMisspec)
{
    SyncUnitConfig cfg = smallConfig();
    cfg.initialCount = 2;
    Mdpt t(cfg);
    auto res = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    EXPECT_FALSE(t.predicts(res.index));
    res = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    EXPECT_TRUE(t.predicts(res.index));
}

TEST(Mdpt, RepeatMisspecStrengthensSameEntry)
{
    Mdpt t(smallConfig());
    auto a = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    auto b = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(t.occupancy(), 1u);
    EXPECT_EQ(t.entry(a.index).counter.value(), 4u);
}

TEST(Mdpt, SaturateOnMisspecOption)
{
    SyncUnitConfig cfg = smallConfig();
    cfg.saturateOnMisspec = true;
    Mdpt t(cfg);
    auto a = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    t.recordMisSpeculation(0x10, 0x20, 1, 0);
    EXPECT_EQ(t.entry(a.index).counter.value(), 7u);
}

TEST(Mdpt, WeakenBelowThresholdStopsPredicting)
{
    Mdpt t(smallConfig());
    auto res = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    t.weaken(res.index);
    EXPECT_FALSE(t.predicts(res.index));
    t.strengthen(res.index);
    EXPECT_TRUE(t.predicts(res.index));
}

TEST(Mdpt, AlwaysSyncPredictorIgnoresCounter)
{
    SyncUnitConfig cfg = smallConfig();
    cfg.predictor = PredictorKind::AlwaysSync;
    Mdpt t(cfg);
    auto res = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    for (int i = 0; i < 10; ++i)
        t.weaken(res.index);
    EXPECT_TRUE(t.predicts(res.index));
}

TEST(Mdpt, LookupByLoadAndStorePc)
{
    Mdpt t(smallConfig());
    t.recordMisSpeculation(0x10, 0x20, 1, 0);
    t.recordMisSpeculation(0x10, 0x30, 2, 0);   // second dep, same load
    t.recordMisSpeculation(0x14, 0x20, 1, 0);   // second dep, same store

    std::vector<uint32_t> out;
    t.lookupLoad(0x10, out);
    EXPECT_EQ(out.size(), 2u);
    out.clear();
    t.lookupStore(0x20, out);
    EXPECT_EQ(out.size(), 2u);
    out.clear();
    t.lookupLoad(0x99, out);
    EXPECT_TRUE(out.empty());
}

TEST(Mdpt, LruEvictionWhenFull)
{
    Mdpt t(smallConfig(2));
    t.recordMisSpeculation(0x10, 0x20, 1, 0);
    t.recordMisSpeculation(0x11, 0x21, 1, 0);
    // Touch the first so the second is LRU.
    std::vector<uint32_t> out;
    t.lookupLoad(0x10, out);
    t.touch(out[0]);

    auto res = t.recordMisSpeculation(0x12, 0x22, 1, 0);
    EXPECT_TRUE(res.evictedValid);
    EXPECT_EQ(t.occupancy(), 2u);
    out.clear();
    t.lookupLoad(0x11, out);
    EXPECT_TRUE(out.empty());   // the untouched entry was evicted
    out.clear();
    t.lookupLoad(0x10, out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(Mdpt, DistanceHysteresisResistsOneOddDistance)
{
    Mdpt t(smallConfig());
    auto res = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    t.recordMisSpeculation(0x10, 0x20, 1, 0);  // dist 1 confirmed
    t.recordMisSpeculation(0x10, 0x20, 4, 0);  // one odd observation
    EXPECT_EQ(t.entry(res.index).dist, 1u);    // distance survives
}

TEST(Mdpt, DistanceAdoptedAfterRepeatedChange)
{
    Mdpt t(smallConfig());
    auto res = t.recordMisSpeculation(0x10, 0x20, 1, 0);
    for (int i = 0; i < 4; ++i)
        t.recordMisSpeculation(0x10, 0x20, 3, 0);
    EXPECT_EQ(t.entry(res.index).dist, 3u);
}

TEST(Mdpt, PathStabilityTracksTaskPc)
{
    Mdpt t(smallConfig());
    auto res = t.recordMisSpeculation(0x10, 0x20, 1, 0xA);
    EXPECT_TRUE(t.entry(res.index).pathCheckUsable());
    t.recordMisSpeculation(0x10, 0x20, 1, 0xA);
    EXPECT_TRUE(t.entry(res.index).pathCheckUsable());
    // Alternate PCs repeatedly: the check becomes unusable.
    for (int i = 0; i < 6; ++i)
        t.recordMisSpeculation(0x10, 0x20, 1, i % 2 ? 0xB : 0xC);
    EXPECT_FALSE(t.entry(res.index).pathCheckUsable());
}

TEST(Mdpt, LookupsAppendMatches)
{
    Mdpt t(smallConfig());
    const uint32_t idx = t.recordMisSpeculation(0x10, 0x20, 1, 0).index;
    std::vector<uint32_t> out;
    t.lookupLoad(0x10, out);
    t.lookupLoad(0x10, out);
    t.lookupStore(0x99, out);
    EXPECT_EQ(out, (std::vector<uint32_t>{idx, idx}));
    t.lookupStore(0x20, out);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_TRUE(t.matchesStore(0x20));
    EXPECT_FALSE(t.matchesStore(0x99));
}

TEST(Mdpt, MatchesComeMostRecentlyAllocatedFirst)
{
    // The sync units touch, attach and release entries in match
    // order, so the order is a stated rule: newest allocation first.
    Mdpt t(smallConfig(4));
    const uint32_t a = t.recordMisSpeculation(0x10, 0x20, 1, 0).index;
    const uint32_t b = t.recordMisSpeculation(0x10, 0x24, 1, 0).index;
    const uint32_t c = t.recordMisSpeculation(0x10, 0x28, 1, 0).index;
    const uint32_t d = t.recordMisSpeculation(0x14, 0x20, 1, 0).index;
    auto loads = [&](Addr pc) {
        std::vector<uint32_t> out;
        t.lookupLoad(pc, out);
        return out;
    };
    auto stores = [&](Addr pc) {
        std::vector<uint32_t> out;
        t.lookupStore(pc, out);
        return out;
    };
    EXPECT_EQ(loads(0x10), (std::vector<uint32_t>{c, b, a}));
    EXPECT_EQ(stores(0x20), (std::vector<uint32_t>{d, a}));

    // Strengthening an edge refreshes recency, not match order.
    t.recordMisSpeculation(0x10, 0x20, 1, 0);
    EXPECT_EQ(loads(0x10), (std::vector<uint32_t>{c, b, a}));

    // b is now least recent: evicting it unlinks the middle of the
    // chain, and its slot rejoins another chain at the front.
    auto res = t.recordMisSpeculation(0x14, 0x2c, 1, 0);
    EXPECT_TRUE(res.evictedValid);
    EXPECT_EQ(res.index, b);
    EXPECT_EQ(loads(0x10), (std::vector<uint32_t>{c, a}));
    EXPECT_EQ(loads(0x14), (std::vector<uint32_t>{b, d}));
    EXPECT_TRUE(stores(0x24).empty());
}

class MdptCapacity : public ::testing::TestWithParam<size_t>
{
};

/** Property: occupancy never exceeds capacity and allocation always
 *  succeeds. */
TEST_P(MdptCapacity, OccupancyBounded)
{
    Mdpt t(smallConfig(GetParam()));
    for (uint32_t i = 0; i < 100; ++i) {
        t.recordMisSpeculation(0x1000 + i * 4, 0x2000 + i * 4, 1, 0);
        EXPECT_LE(t.occupancy(), GetParam());
    }
    EXPECT_EQ(t.occupancy(), std::min<size_t>(100, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Capacities, MdptCapacity,
                         ::testing::Values(1, 2, 8, 64, 256));

} // namespace
} // namespace mdp
