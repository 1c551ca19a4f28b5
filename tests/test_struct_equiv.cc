/**
 * @file
 * The indexed MDPT and LRU replacement paths must make bit-identical
 * choices to the linear scans they replaced.  Each reference model
 * here IS the old scan, kept verbatim; seeded randomized workloads
 * drive the real structure and the reference in lockstep and compare
 * every observable after every operation.  Runs under ASan/TSan via
 * the regular test matrix.
 */

#include <gtest/gtest.h>

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

/** MDPT allocation with a linear pair-match scan and stamp-scan LRU. */
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
        lru.touch(victim);
        res.index = victim;
        return res;
    }

    void touch(uint32_t idx) { lru.touch(idx); }
    const Entry &entry(uint32_t idx) const { return entries[idx]; }
    size_t size() const { return entries.size(); }

  private:
    SyncUnitConfig cfg;
    std::vector<Entry> entries;
    RefLru lru;
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
    for (uint64_t seed : {5u, 23u, 77u}) {
        std::mt19937_64 rng(seed);
        Mdpt real(cfg);
        RefMdpt ref(cfg);
        for (int op = 0; op < 20000; ++op) {
            // 12 loads x 12 stores >> 8 entries.
            const Addr ldpc = 0x1000 + (rng() % 12) * 4;
            const Addr stpc = 0x2000 + (rng() % 12) * 4;
            const uint32_t dist = static_cast<uint32_t>(rng() % 4);
            const Addr taskpc = 0x3000 + (rng() % 3) * 8;
            if (rng() % 8 == 0) {
                // Interleave plain recency refreshes (the sync units
                // touch on every match) so LRU order diverges from
                // allocation order.
                const uint32_t idx =
                    static_cast<uint32_t>(rng() % cfg.numEntries);
                real.touch(idx);
                ref.touch(idx);
                continue;
            }
            const Mdpt::AllocResult got =
                real.recordMisSpeculation(ldpc, stpc, dist, taskpc);
            const Mdpt::AllocResult want =
                ref.recordMisSpeculation(ldpc, stpc, dist, taskpc);
            ASSERT_EQ(got.index, want.index)
                << "seed " << seed << " op " << op;
            ASSERT_EQ(got.evictedValid, want.evictedValid);
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
        }
    }
}

} // namespace
} // namespace mdp
