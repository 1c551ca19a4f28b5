/**
 * @file
 * Unit tests for the standalone MDST pool and the DDC.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mdp/ddc.hh"
#include "mdp/mdst.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// Mdst
// --------------------------------------------------------------------

TEST(Mdst, AllocateAndFind)
{
    Mdst m(4);
    LoadId displaced;
    uint32_t idx = m.allocate(0x10, 0x20, 5, 42, 0, false, displaced);
    EXPECT_EQ(displaced, kNoLoad);
    EXPECT_EQ(m.find(0x10, 0x20, 5), static_cast<int>(idx));
    EXPECT_EQ(m.find(0x10, 0x20, 6), -1);
    EXPECT_EQ(m.find(0x11, 0x20, 5), -1);
    const auto &e = m.entry(idx);
    EXPECT_EQ(e.ldid, 42u);
    EXPECT_FALSE(e.full);
    EXPECT_TRUE(e.valid);
}

TEST(Mdst, SignalSetsFull)
{
    Mdst m(4);
    LoadId d;
    uint32_t idx = m.allocate(0x10, 0x20, 5, 42, 0, false, d);
    m.signal(idx);
    EXPECT_TRUE(m.entry(idx).full);
}

TEST(Mdst, FreeInvalidates)
{
    Mdst m(4);
    LoadId d;
    uint32_t idx = m.allocate(0x10, 0x20, 5, 42, 0, false, d);
    m.free(idx);
    EXPECT_EQ(m.find(0x10, 0x20, 5), -1);
    EXPECT_EQ(m.occupancy(), 0u);
    // Double free is harmless.
    m.free(idx);
}

TEST(Mdst, ScavengesFullEntriesBeforeWaiting)
{
    Mdst m(2);
    LoadId d;
    m.allocate(0x10, 0x20, 1, 42, 0, false, d);    // waiting
    uint32_t full = m.allocate(0x11, 0x21, 2, kNoLoad, 9, true, d);
    // Pool is full; the full entry should be scavenged, not the wait.
    EXPECT_EQ(m.allocate(0x12, 0x22, 3, 43, 0, false, d), full);
    EXPECT_EQ(d, kNoLoad);
    EXPECT_NE(m.find(0x10, 0x20, 1), -1);
    EXPECT_EQ(m.find(0x11, 0x21, 2), -1);
    EXPECT_EQ(m.occupancy(), 2u);
}

TEST(Mdst, ForcedEvictionReportsDisplacedLoad)
{
    Mdst m(1);
    LoadId d;
    m.allocate(0x10, 0x20, 1, 42, 0, false, d);
    m.allocate(0x11, 0x21, 2, 43, 0, false, d);
    EXPECT_EQ(d, 42u);
    EXPECT_EQ(m.find(0x10, 0x20, 1), -1);
    EXPECT_EQ(m.entry(0).ldid, 43u);
}

TEST(Mdst, WaitingFor)
{
    Mdst m(4);
    LoadId d;
    m.allocate(0x10, 0x20, 1, 42, 0, false, d);
    m.allocate(0x11, 0x21, 2, 42, 0, false, d);
    uint32_t full = m.allocate(0x12, 0x22, 3, 42, 0, false, d);
    m.signal(full);   // no longer waiting
    std::vector<uint32_t> out;
    m.waitingFor(42, out);
    EXPECT_EQ(out, (std::vector<uint32_t>{0u, 1u}));
    m.waitingFor(43, out);   // appends nothing
    EXPECT_EQ(out.size(), 2u);
}

TEST(Mdst, ReplacementFollowsAllocationOrder)
{
    // Section 4.4.2's order: the lowest invalid entry, then the least
    // recently allocated full entry, then the least recently allocated
    // waiting entry.  A signal does not refresh an entry's recency.
    Mdst m(3);
    LoadId d;
    EXPECT_EQ(m.allocate(0x10, 0x20, 0, 40, 0, false, d), 0u);
    EXPECT_EQ(m.allocate(0x11, 0x21, 1, kNoLoad, 1, true, d), 1u);
    EXPECT_EQ(m.allocate(0x12, 0x22, 2, 42, 0, false, d), 2u);
    m.signal(0);
    m.free(2);
    EXPECT_EQ(m.allocate(0x13, 0x23, 3, 43, 0, false, d), 2u);
    EXPECT_EQ(d, kNoLoad);
    // Entries 0 and 1 are full; 0 was allocated first.
    EXPECT_EQ(m.allocate(0x14, 0x24, 4, 44, 0, false, d), 0u);
    EXPECT_EQ(d, kNoLoad);
    EXPECT_EQ(m.allocate(0x15, 0x25, 5, 45, 0, false, d), 1u);
    EXPECT_EQ(d, kNoLoad);
    // Every entry now waits; entry 2 (load 43) is the oldest.
    EXPECT_EQ(m.allocate(0x16, 0x26, 6, 46, 0, false, d), 2u);
    EXPECT_EQ(d, 43u);
    EXPECT_EQ(m.allocate(0x17, 0x27, 7, 47, 0, false, d), 0u);
    EXPECT_EQ(d, 44u);
    std::vector<uint32_t> out;
    m.waitingFor(45, out);
    EXPECT_EQ(out, std::vector<uint32_t>{1u});
}

TEST(Mdst, DistinctInstancesCoexist)
{
    Mdst m(8);
    LoadId d;
    for (uint64_t inst = 0; inst < 8; ++inst)
        m.allocate(0x10, 0x20, inst, 100 + inst, 0, false, d);
    for (uint64_t inst = 0; inst < 8; ++inst) {
        int idx = m.find(0x10, 0x20, inst);
        ASSERT_GE(idx, 0);
        EXPECT_EQ(m.entry(idx).ldid, 100 + inst);
    }
}

// --------------------------------------------------------------------
// DepDependenceCache (DDC)
// --------------------------------------------------------------------

TEST(Ddc, MissThenHit)
{
    DepDependenceCache ddc(4);
    EXPECT_FALSE(ddc.access(0x10, 0x20));
    EXPECT_TRUE(ddc.access(0x10, 0x20));
    EXPECT_EQ(ddc.hits(), 1u);
    EXPECT_EQ(ddc.misses(), 1u);
    EXPECT_DOUBLE_EQ(ddc.missRate(), 0.5);
}

TEST(Ddc, DistinguishesPairs)
{
    DepDependenceCache ddc(4);
    ddc.access(0x10, 0x20);
    EXPECT_FALSE(ddc.access(0x10, 0x21));
    EXPECT_FALSE(ddc.access(0x11, 0x20));
    EXPECT_EQ(ddc.occupancy(), 3u);
}

TEST(Ddc, LruEviction)
{
    DepDependenceCache ddc(2);
    ddc.access(1, 1);
    ddc.access(2, 2);
    ddc.access(1, 1);   // refresh pair 1
    ddc.access(3, 3);   // evicts pair 2
    EXPECT_TRUE(ddc.access(1, 1));
    EXPECT_FALSE(ddc.access(2, 2));
}

TEST(Ddc, MissRateZeroWhenUnused)
{
    DepDependenceCache ddc(4);
    EXPECT_DOUBLE_EQ(ddc.missRate(), 0.0);
}

/** Property: a larger DDC never has a higher miss rate on the same
 *  reference stream. */
TEST(Ddc, MissRateMonotoneInCapacity)
{
    // A cyclic reference pattern over 8 pairs stresses capacity.
    std::vector<std::pair<Addr, Addr>> refs;
    for (int rep = 0; rep < 50; ++rep)
        for (int p = 0; p < 8; ++p)
            refs.emplace_back(0x100 + p, 0x200 + p);

    double prev = 1.1;
    for (size_t cap : {2, 4, 8, 16}) {
        DepDependenceCache ddc(cap);
        for (auto &[l, s] : refs)
            ddc.access(l, s);
        EXPECT_LE(ddc.missRate(), prev);
        prev = ddc.missRate();
    }
}

TEST(Ddc, FullyCapturedWorkingSet)
{
    DepDependenceCache ddc(8);
    for (int rep = 0; rep < 10; ++rep)
        for (int p = 0; p < 8; ++p)
            ddc.access(0x100 + p, 0x200 + p);
    // Only compulsory misses.
    EXPECT_EQ(ddc.misses(), 8u);
}

} // namespace
} // namespace mdp
