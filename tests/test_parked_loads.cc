/**
 * @file
 * Tests for ParkedLoads, the load-wait protocol both timing models
 * share.  Seeded random sequences of parks (all three kinds), store
 * executions, frontier scans, eviction drains and squashes are run
 * against a naive reference that rescans every list in full on every
 * scan, with no gating; the (seq, reason) release streams, the
 * synchronizer calls and the op-state bits must agree step by step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "base/soa_lanes.hh"
#include "mdp/parked_loads.hh"

namespace mdp
{
namespace
{

using Release = std::pair<SeqNum, LoadRelease>;

/**
 * A scripted synchronizer: storeReady and drainReleasedLoads hand out
 * whatever the test queued, and every frontierRelease / squash call is
 * logged.
 */
class ScriptedUnit : public DepSynchronizer
{
  public:
    std::vector<LoadId> nextWakeups;
    std::vector<LoadId> nextEvictions;
    std::vector<LoadId> frontierReleased;
    std::vector<LoadId> squashedFrom;

    LoadCheck
    loadReady(Addr, Addr, uint64_t, LoadId, const TaskPcSource *) override
    {
        return {};
    }

    void
    storeReady(Addr, Addr, uint64_t, LoadId,
               std::vector<LoadId> &wakeups) override
    {
        wakeups.insert(wakeups.end(), nextWakeups.begin(),
                       nextWakeups.end());
        nextWakeups.clear();
    }

    void misSpeculation(Addr, Addr, uint32_t, Addr) override {}

    void
    frontierRelease(LoadId ldid) override
    {
        frontierReleased.push_back(ldid);
    }

    void
    squash(LoadId min_ldid, uint64_t min_store_id) override
    {
        EXPECT_EQ(min_ldid, min_store_id);
        squashedFrom.push_back(min_ldid);
    }

    void
    drainReleasedLoads(std::vector<LoadId> &out) override
    {
        out.insert(out.end(), nextEvictions.begin(), nextEvictions.end());
        nextEvictions.clear();
    }

    const SyncStats &stats() const override { return st; }

  private:
    SyncStats st;
};

LoadDecision
decide(LoadAction action, SeqNum producer = kNoSeq)
{
    LoadDecision d;
    d.action = action;
    d.producer = producer;
    return d;
}

/**
 * The protocol with no gating: the same lists, every one rescanned in
 * full on every scan, stale entries dropped every time.
 */
class NaiveParkedLoads
{
  public:
    explicit NaiveParkedLoads(size_t n) : flags(n, 0) {}

    std::vector<uint16_t> flags;
    std::vector<Release> releases;
    std::vector<LoadId> frontierReleased;

    void
    park(SeqNum seq, const LoadDecision &d)
    {
        switch (d.action) {
          case LoadAction::BlockFrontier:
            flags[seq] |= ParkedLoads::kBlockedFrontier;
            frontier.push_back(seq);
            break;
          case LoadAction::BlockProducer:
            flags[seq] |= ParkedLoads::kBlockedProducer;
            producer.push_back({d.producer, seq});
            break;
          case LoadAction::BlockSync:
            flags[seq] |= ParkedLoads::kBlockedSync;
            sync.push_back(seq);
            break;
          default:
            break;
        }
    }

    void
    storeExecuted(SeqNum store, const std::vector<LoadId> &wakeups)
    {
        std::erase_if(producer, [&](const std::pair<SeqNum, SeqNum> &w) {
            if (w.first != store)
                return false;
            release(w.second, ParkedLoads::kBlockedProducer, 0,
                    LoadRelease::Producer);
            return true;
        });
        for (LoadId l : wakeups)
            release(l, ParkedLoads::kBlockedSync, 0, LoadRelease::Signal);
    }

    void
    scan(uint64_t bound)
    {
        std::erase_if(frontier, [&](SeqNum s) {
            if (!(flags[s] & ParkedLoads::kBlockedFrontier))
                return true;
            if (s > bound)
                return false;
            release(s, ParkedLoads::kBlockedFrontier, 0,
                    LoadRelease::Frontier);
            return true;
        });
        std::erase_if(sync, [&](SeqNum s) {
            if (!(flags[s] & ParkedLoads::kBlockedSync))
                return true;
            if (s > bound)
                return false;
            frontierReleased.push_back(s);
            release(s, ParkedLoads::kBlockedSync, ParkedLoads::kSyncDone,
                    LoadRelease::SyncFrontier);
            return true;
        });
    }

    void
    drainEvictions(const std::vector<LoadId> &evicted)
    {
        for (LoadId l : evicted)
            release(l, ParkedLoads::kBlockedSync, ParkedLoads::kSyncDone,
                    LoadRelease::Eviction);
    }

    void
    squash(SeqNum from)
    {
        auto younger = [from](SeqNum s) { return s >= from; };
        std::erase_if(frontier, younger);
        std::erase_if(sync, younger);
        std::erase_if(producer, [&](const std::pair<SeqNum, SeqNum> &w) {
            return w.first >= from || w.second >= from;
        });
    }

  private:
    void
    release(SeqNum s, uint16_t bit, uint16_t set, LoadRelease why)
    {
        if (!(flags[s] & bit))
            return;
        flags[s] = static_cast<uint16_t>((flags[s] & ~bit) | set);
        releases.push_back({s, why});
    }

    std::vector<SeqNum> frontier;
    std::vector<SeqNum> sync;
    std::vector<std::pair<SeqNum, SeqNum>> producer;  ///< (store, load)
};

/**
 * One seeded run: @p steps random events over @p n ops.  With
 * @p producers non-zero, every BlockProducer wait names one of the
 * stores 0 .. producers-1, so several loads share a store and
 * squashes land between parks on it.
 */
void
runRandomSequence(uint64_t seed, SeqNum n, int steps,
                  SeqNum producers = 0)
{
    Pcg32 rng(seed);
    OpLanes lanes(n);
    ScriptedUnit unit;
    ParkedLoads parked(lanes, &unit, n);
    NaiveParkedLoads ref(n);
    std::vector<Release> got;
    auto record = [&](SeqNum s, LoadRelease why) {
        got.push_back({s, why});
    };

    // The models' store-frontier bound: non-decreasing, except that a
    // squash can pull it back to the first re-executing store.
    uint64_t bound = 0;
    // A release ends a load's wait until a squash re-executes it (the
    // models issue a released load; a signal-woken one re-checks at
    // issue but consumes its kept full flag).
    std::vector<bool> waited(n, false);

    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                          << step);
        const uint32_t kind = rng.below(10);
        if (kind < 4) {
            SeqNum seq = static_cast<SeqNum>(rng.below(n));
            if (lanes.flags(seq) != 0 || waited[seq])
                continue;
            LoadDecision d;
            const uint32_t how = rng.below(3);
            if (how == 0) {
                // The frontier check failed: the load is past the
                // bound.
                if (seq <= bound)
                    continue;
                d = decide(LoadAction::BlockFrontier);
            } else if (how == 1) {
                const SeqNum pool = producers ? producers : seq;
                if (seq < pool || pool == 0)
                    continue;
                d = decide(LoadAction::BlockProducer, rng.below(pool));
            } else {
                d = decide(LoadAction::BlockSync);
            }
            ASSERT_TRUE(parked.park(seq, d));
            ref.park(seq, d);
            waited[seq] = true;
        } else if (kind < 6) {
            SeqNum store = static_cast<SeqNum>(
                rng.below(producers ? producers : n));
            std::vector<LoadId> wake;
            for (uint32_t k = rng.below(4); k > 0; --k)
                wake.push_back(rng.below(n));
            unit.nextWakeups = wake;
            parked.storeExecuted(0x40, 0x1000, 0, store, record);
            ref.storeExecuted(store, wake);
        } else if (kind < 8) {
            const uint32_t move = rng.below(8);
            if (move == 0)
                bound = UINT64_MAX;
            else if (bound != UINT64_MAX && move > 3)
                bound = std::min<uint64_t>(bound + rng.below(n / 4), n);
            parked.scan(bound, record);
            ref.scan(bound);
        } else if (kind < 9) {
            std::vector<LoadId> evicted;
            for (uint32_t k = rng.below(3); k > 0; --k)
                evicted.push_back(rng.below(n));
            unit.nextEvictions = evicted;
            parked.drainEvictions(record);
            ref.drainEvictions(evicted);
        } else {
            SeqNum from = static_cast<SeqNum>(rng.below(n));
            // The model resets every squashed op, then squashes the
            // protocol; stores from `from` on execute again.
            for (SeqNum s = from; s < n; ++s) {
                lanes.resetOp(s);
                ref.flags[s] = 0;
                waited[s] = false;
            }
            parked.squash(from);
            ref.squash(from);
            bound = std::min<uint64_t>(bound, from + rng.below(4));
            ASSERT_FALSE(unit.squashedFrom.empty());
            EXPECT_EQ(unit.squashedFrom.back(), from);
        }

        ASSERT_EQ(got, ref.releases);
        ASSERT_EQ(unit.frontierReleased, ref.frontierReleased);
        for (SeqNum s = 0; s < n; ++s)
            ASSERT_EQ(lanes.flags(s), ref.flags[s]) << "op " << s;
    }
}

TEST(ParkedLoads, RandomSequencesMatchUngatedReference)
{
    for (uint64_t seed = 1; seed <= 200; ++seed)
        runRandomSequence(seed, 48, 400);
}

TEST(ParkedLoads, SharedProducerSequencesMatchReference)
{
    for (uint64_t seed = 1; seed <= 200; ++seed)
        runRandomSequence(seed, 24, 300, 2);
}

TEST(ParkedLoads, StoreReleasesItsLoadsInParkOrder)
{
    OpLanes lanes(16);
    ParkedLoads parked(lanes, nullptr, 16);
    std::vector<Release> got;
    auto record = [&](SeqNum s, LoadRelease why) {
        got.push_back({s, why});
    };

    // Several loads on store 2, out of seq order, and one on store 3.
    ASSERT_TRUE(parked.park(11, decide(LoadAction::BlockProducer, 2)));
    ASSERT_TRUE(parked.park(8, decide(LoadAction::BlockProducer, 2)));
    ASSERT_TRUE(parked.park(9, decide(LoadAction::BlockProducer, 3)));
    ASSERT_TRUE(parked.park(7, decide(LoadAction::BlockProducer, 2)));

    // Squash from 9 between parks: 9 and 11 lose their waits.  11
    // re-parks on the same store, 9 on the other one.
    for (SeqNum s = 9; s < 16; ++s)
        lanes.resetOp(s);
    parked.squash(9);
    ASSERT_TRUE(parked.park(9, decide(LoadAction::BlockProducer, 2)));
    ASSERT_TRUE(parked.park(11, decide(LoadAction::BlockProducer, 2)));

    // Store 3's only wait was squashed: nothing releases.
    parked.storeExecuted(0x40, 0x1000, 0, 3, record);
    EXPECT_TRUE(got.empty());
    EXPECT_TRUE(lanes.test(9, ParkedLoads::kBlockedProducer));

    // Store 2 releases in park order; the squashed first park of 11
    // left no place in it.
    parked.storeExecuted(0x40, 0x1000, 0, 2, record);
    EXPECT_EQ(got, (std::vector<Release>{{8, LoadRelease::Producer},
                                         {7, LoadRelease::Producer},
                                         {9, LoadRelease::Producer},
                                         {11, LoadRelease::Producer}}));
    for (SeqNum s : {7u, 8u, 9u, 11u})
        EXPECT_FALSE(lanes.test(s, ParkedLoads::kBlocked)) << s;

    // Every wait on store 2 is gone: it releases nothing again.
    ASSERT_TRUE(parked.park(12, decide(LoadAction::BlockProducer, 3)));
    parked.storeExecuted(0x40, 0x1000, 0, 2, record);
    EXPECT_EQ(got.size(), 4u);
}

TEST(ParkedLoads, IssueDecisionsDoNotPark)
{
    OpLanes lanes(4);
    ParkedLoads parked(lanes, nullptr, 4);
    EXPECT_FALSE(parked.park(1, decide(LoadAction::Issue)));
    EXPECT_FALSE(parked.park(2, decide(LoadAction::IssueValuePredicted)));
    EXPECT_EQ(lanes.flags(1), 0);
    EXPECT_EQ(lanes.flags(2), 0);
}

TEST(ParkedLoads, SignalWokenLoadIsDroppedAtTheNextScan)
{
    OpLanes lanes(16);
    ScriptedUnit unit;
    ParkedLoads parked(lanes, &unit, 16);
    std::vector<Release> got;
    auto record = [&](SeqNum s, LoadRelease why) {
        got.push_back({s, why});
    };

    ASSERT_TRUE(parked.park(9, decide(LoadAction::BlockSync)));
    ASSERT_TRUE(parked.park(10, decide(LoadAction::BlockSync)));
    EXPECT_TRUE(lanes.test(9, ParkedLoads::kBlockedSync));

    unit.nextWakeups = {9};
    parked.storeExecuted(0x40, 0x1000, 0, 3, record);
    ASSERT_EQ(got, (std::vector<Release>{{9, LoadRelease::Signal}}));
    EXPECT_FALSE(lanes.test(9, ParkedLoads::kBlocked));
    EXPECT_FALSE(lanes.test(9, ParkedLoads::kSyncDone));

    // Every prior store has executed: 9's stale entry is dropped, and
    // only 10 is frontier-released.
    parked.scan(UINT64_MAX, record);
    ASSERT_EQ(got, (std::vector<Release>{{9, LoadRelease::Signal},
                                         {10, LoadRelease::SyncFrontier}}));
    EXPECT_EQ(unit.frontierReleased, std::vector<LoadId>{10});
    EXPECT_FALSE(lanes.test(9, ParkedLoads::kSyncDone));
    EXPECT_TRUE(lanes.test(10, ParkedLoads::kSyncDone));
}

TEST(ParkedLoads, WithoutSynchronizerOnlyProducerWaitsRelease)
{
    OpLanes lanes(8);
    ParkedLoads parked(lanes, nullptr, 8);
    std::vector<Release> got;
    auto record = [&](SeqNum s, LoadRelease why) {
        got.push_back({s, why});
    };

    ASSERT_TRUE(parked.park(5, decide(LoadAction::BlockProducer, 2)));
    ASSERT_TRUE(parked.park(6, decide(LoadAction::BlockProducer, 2)));
    ASSERT_TRUE(parked.park(7, decide(LoadAction::BlockFrontier)));
    parked.drainEvictions(record);
    parked.storeExecuted(0x40, 0x1000, 0, 1, record);
    EXPECT_TRUE(got.empty());

    parked.storeExecuted(0x40, 0x1000, 0, 2, record);
    parked.scan(6, record);
    EXPECT_EQ(got, (std::vector<Release>{{5, LoadRelease::Producer},
                                         {6, LoadRelease::Producer}}));
    parked.scan(7, record);
    EXPECT_EQ(got.back(), Release(7, LoadRelease::Frontier));
}

} // namespace
} // namespace mdp
