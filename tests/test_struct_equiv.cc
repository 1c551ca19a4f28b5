/**
 * @file
 * The indexed MDPT and LRU replacement paths must make bit-identical
 * choices to the linear scans they replaced.  Each reference model
 * here IS the old scan, kept verbatim; the MDPT reference also orders
 * its matches by a naive allocation stamp, newest first.  Seeded
 * randomized workloads drive the real structure and the reference in
 * lockstep and compare every observable after every operation.  Runs
 * under ASan/TSan via the regular test matrix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "base/lru.hh"
#include "mdp/config.hh"
#include "mdp/mdpt.hh"

namespace mdp
{
namespace
{

// --------------------------------------------------------------------
// Reference models: the pre-index linear scans.
// --------------------------------------------------------------------

/** Recency stamps only; victim() is the first-minimal-stamp scan. */
class RefLru
{
  public:
    explicit RefLru(size_t n) : stamps(n, 0) {}

    void touch(size_t i) { stamps[i] = ++tick; }

    size_t
    victim() const
    {
        size_t best = 0;
        for (size_t i = 1; i < stamps.size(); ++i)
            if (stamps[i] < stamps[best])
                best = i;
        return best;
    }

  private:
    std::vector<uint64_t> stamps;
    uint64_t tick = 0;
};

/** MDPT allocation with a linear pair-match scan and stamp-scan LRU;
 *  lookups scan every entry and sort the matches by allocation stamp,
 *  descending. */
class RefMdpt
{
  public:
    struct Entry
    {
        Addr ldpc = 0;
        Addr stpc = 0;
        uint32_t dist = 0;
        Addr storeTaskPc = 0;
        SatCounter counter;
        SatCounter pathStable;
        SatCounter distStable;
        bool valid = false;
        uint64_t allocStamp = 0;
    };

    explicit RefMdpt(const SyncUnitConfig &config)
        : cfg(config), entries(config.numEntries),
          lru(config.numEntries)
    {
        for (auto &e : entries) {
            e.counter = SatCounter(cfg.counterBits);
            e.pathStable = SatCounter(2);
            e.distStable = SatCounter(2);
        }
    }

    Mdpt::AllocResult
    recordMisSpeculation(Addr ldpc, Addr stpc, uint32_t dist,
                         Addr store_task_pc)
    {
        Mdpt::AllocResult res;
        // Linear scan for the existing edge (at most one matches).
        for (uint32_t i = 0; i < entries.size(); ++i) {
            Entry &e = entries[i];
            if (!e.valid || e.ldpc != ldpc || e.stpc != stpc)
                continue;
            if (dist == e.dist) {
                e.distStable.increment();
            } else {
                e.distStable.decrement();
                if (e.distStable.value() == 0) {
                    e.dist = dist;
                    e.distStable = SatCounter(2, 2);
                }
            }
            if (e.storeTaskPc == store_task_pc)
                e.pathStable.increment();
            else
                e.pathStable.decrement();
            e.storeTaskPc = store_task_pc;
            if (cfg.saturateOnMisspec)
                e.counter.saturate();
            else
                e.counter.increment();
            lru.touch(i);
            res.index = i;
            return res;
        }
        const uint32_t victim = static_cast<uint32_t>(lru.victim());
        Entry &e = entries[victim];
        res.evictedValid = e.valid;
        e.valid = true;
        e.ldpc = ldpc;
        e.stpc = stpc;
        e.dist = dist;
        e.storeTaskPc = store_task_pc;
        e.counter = SatCounter(cfg.counterBits, cfg.initialCount);
        e.pathStable = SatCounter(2, 3);
        e.distStable = SatCounter(2, 2);
        e.allocStamp = ++allocs;
        lru.touch(victim);
        res.index = victim;
        return res;
    }

    std::vector<uint32_t>
    lookupLoad(Addr ldpc) const
    {
        return matches([&](const Entry &e) { return e.ldpc == ldpc; });
    }

    std::vector<uint32_t>
    lookupStore(Addr stpc) const
    {
        return matches([&](const Entry &e) { return e.stpc == stpc; });
    }

    /** Where the next allocation's victim sits in its load chain:
     *  0 head, 1 middle, 2 tail; -1 when invalid or alone. */
    int
    victimChainPosition() const
    {
        const uint32_t victim = static_cast<uint32_t>(lru.victim());
        if (!entries[victim].valid)
            return -1;
        const std::vector<uint32_t> chain =
            lookupLoad(entries[victim].ldpc);
        if (chain.size() < 2)
            return -1;
        if (chain.front() == victim)
            return 0;
        return chain.back() == victim ? 2 : 1;
    }

    void touch(uint32_t idx) { lru.touch(idx); }
    const Entry &entry(uint32_t idx) const { return entries[idx]; }
    size_t size() const { return entries.size(); }

  private:
    template <class Match>
    std::vector<uint32_t>
    matches(Match match) const
    {
        std::vector<uint32_t> out;
        for (uint32_t i = 0; i < entries.size(); ++i)
            if (entries[i].valid && match(entries[i]))
                out.push_back(i);
        std::sort(out.begin(), out.end(), [&](uint32_t a, uint32_t b) {
            return entries[a].allocStamp > entries[b].allocStamp;
        });
        return out;
    }

    SyncUnitConfig cfg;
    std::vector<Entry> entries;
    RefLru lru;
    uint64_t allocs = 0;
};

// --------------------------------------------------------------------
// Lockstep drivers
// --------------------------------------------------------------------

TEST(StructEquiv, LruVictimMatchesStampScan)
{
    for (uint64_t seed : {3u, 11u, 99u}) {
        std::mt19937_64 rng(seed);
        constexpr size_t kPool = 16;
        LruState real(kPool);
        RefLru ref(kPool);
        for (int op = 0; op < 20000; ++op) {
            if (rng() % 3 == 0) {
                ASSERT_EQ(real.victim(), ref.victim())
                    << "seed " << seed << " op " << op;
            } else {
                const size_t i = rng() % kPool;
                real.touch(i);
                ref.touch(i);
            }
        }
    }
}

TEST(StructEquiv, MdptAllocationMatchesLinearScans)
{
    SyncUnitConfig cfg;
    cfg.numEntries = 8;   // small: constant eviction pressure
    // (load PCs, store PCs): few PCs on one side make long chains, so
    // evictions unlink chain heads, middles and tails.
    const std::pair<unsigned, unsigned> mixes[] = {{12, 12}, {3, 12},
                                                   {12, 3}, {2, 2}};
    size_t unlinked[3] = {0, 0, 0};
    for (const auto &[num_ld, num_st] : mixes) {
        for (uint64_t seed : {5u, 23u, 77u}) {
            std::mt19937_64 rng(seed);
            Mdpt real(cfg);
            RefMdpt ref(cfg);
            std::vector<uint32_t> got_matches;
            for (int op = 0; op < 20000; ++op) {
                const Addr ldpc = 0x1000 + (rng() % num_ld) * 4;
                const Addr stpc = 0x2000 + (rng() % num_st) * 4;
                const uint32_t dist = static_cast<uint32_t>(rng() % 4);
                const Addr taskpc = 0x3000 + (rng() % 3) * 8;
                if (rng() % 8 == 0) {
                    // Interleave plain recency refreshes (the sync
                    // units touch on every match) so LRU order
                    // diverges from allocation order.
                    const uint32_t idx =
                        static_cast<uint32_t>(rng() % cfg.numEntries);
                    real.touch(idx);
                    ref.touch(idx);
                    continue;
                }
                const int pos = ref.victimChainPosition();
                const Mdpt::AllocResult got =
                    real.recordMisSpeculation(ldpc, stpc, dist, taskpc);
                const Mdpt::AllocResult want =
                    ref.recordMisSpeculation(ldpc, stpc, dist, taskpc);
                ASSERT_EQ(got.index, want.index)
                    << "seed " << seed << " op " << op;
                ASSERT_EQ(got.evictedValid, want.evictedValid);
                if (want.evictedValid && pos >= 0)
                    ++unlinked[pos];
                for (uint32_t i = 0; i < cfg.numEntries; ++i) {
                    const Mdpt::Entry &a = real.entry(i);
                    const RefMdpt::Entry &b = ref.entry(i);
                    ASSERT_EQ(a.valid, b.valid) << "entry " << i;
                    if (!a.valid)
                        continue;
                    ASSERT_EQ(a.ldpc, b.ldpc) << "entry " << i;
                    ASSERT_EQ(a.stpc, b.stpc) << "entry " << i;
                    ASSERT_EQ(a.dist, b.dist) << "entry " << i;
                    ASSERT_EQ(a.storeTaskPc, b.storeTaskPc);
                    ASSERT_EQ(a.counter.value(), b.counter.value());
                }
                // Every PC's matches, in order.
                for (unsigned k = 0; k < std::max(num_ld, num_st); ++k) {
                    const Addr ld = 0x1000 + k * 4, st = 0x2000 + k * 4;
                    got_matches.clear();
                    real.lookupLoad(ld, got_matches);
                    ASSERT_EQ(got_matches, ref.lookupLoad(ld))
                        << "seed " << seed << " op " << op;
                    got_matches.clear();
                    real.lookupStore(st, got_matches);
                    ASSERT_EQ(got_matches, ref.lookupStore(st))
                        << "seed " << seed << " op " << op;
                    ASSERT_EQ(real.matchesStore(st),
                              !ref.lookupStore(st).empty());
                }
            }
        }
    }
    EXPECT_GT(unlinked[0], 0u) << "no chain head evicted";
    EXPECT_GT(unlinked[1], 0u) << "no chain middle evicted";
    EXPECT_GT(unlinked[2], 0u) << "no chain tail evicted";
}

} // namespace
} // namespace mdp
