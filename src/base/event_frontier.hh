/**
 * @file
 * Bucketed per-id event frontier (calendar-queue style).
 *
 * The manycore Multiscalar loop parks every quiescent PE at the exact
 * cycle its next time-gated predicate can flip, and per cycle touches
 * only the PEs whose park time has arrived.  This container is that
 * schedule: a fixed id space (one id per PE), each id carrying at most
 * one pending time, with
 *
 *  - a power-of-two bucket wheel for near events (the common case:
 *    re-arms at cycle+1 and short completion latencies), O(1)
 *    schedule/pop, and
 *  - an overflow min-heap for events past the wheel horizon (park
 *    times of long-idle PEs), O(log n).
 *
 * Rescheduling is lazy: moving an id leaves the old wheel/heap entry
 * behind as a stale hint, dropped when encountered (the per-id stored
 * time is the single source of truth).  popDue() snaps the wheel base
 * forward in O(1) over empty regions, so event-driven jumps of
 * millions of cycles do not walk buckets.
 *
 * Determinism: iteration never touches a hash container or any
 * wall-clock/random source (mdp_lint rules `ordered-scope` and
 * `nondet-source` enforce this); ties are broken by id, and popDue()
 * emits due ids in a deterministic order.  The timing model
 * additionally sorts the due set into ring order, so no container
 * order can leak into results.
 */

#ifndef MDP_BASE_EVENT_FRONTIER_HH
#define MDP_BASE_EVENT_FRONTIER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mdp
{

class EventFrontier
{
  public:
    /** "No pending event" sentinel for scheduledAt(). */
    static constexpr uint64_t kUnscheduled = UINT64_MAX;

    explicit EventFrontier(uint32_t num_ids)
        : stored(num_ids, kUnscheduled), wheel(kWheelWidth)
    {
    }

    size_t numIds() const { return stored.size(); }

    /** Pending time of @p id (kUnscheduled when none). */
    uint64_t scheduledAt(uint32_t id) const { return stored[id]; }

    /** Ids with a pending event. */
    size_t scheduledCount() const { return numScheduled; }

    /** First cycle past the bucket wheel (tests / introspection). */
    uint64_t horizon() const { return base + kWheelWidth; }

    /**
     * Set @p id's pending time to exactly @p t, replacing any earlier
     * or later pending time (kUnscheduled cancels).
     */
    void
    schedule(uint32_t id, uint64_t t)
    {
        if (t == kUnscheduled) {
            unschedule(id);
            return;
        }
        if (stored[id] == t)
            return;
        if (stored[id] == kUnscheduled)
            ++numScheduled;
        stored[id] = t;
        insert(id, t);
    }

    /** Move @p id's pending time earlier; a later @p t is a no-op. */
    void
    scheduleEarlier(uint32_t id, uint64_t t)
    {
        if (t < stored[id])
            schedule(id, t);
    }

    /** Drop @p id's pending event, if any. */
    void
    unschedule(uint32_t id)
    {
        if (stored[id] != kUnscheduled) {
            stored[id] = kUnscheduled;
            --numScheduled;
        }
    }

    /**
     * Remove every id whose pending time is <= @p now and append it to
     * @p out (not cleared), advancing the wheel base to @p now + 1.
     * Cost is O(due + stale hints encountered); when the wheel is
     * empty the base snaps forward in O(1) regardless of the gap.
     */
    void
    popDue(uint64_t now, std::vector<uint32_t> &out)
    {
        while (!heap.empty() && heap.front().t <= now) {
            Entry e = heap.front();
            std::pop_heap(heap.begin(), heap.end(), entryAfter);
            heap.pop_back();
            if (stored[e.id] == e.t) {
                stored[e.id] = kUnscheduled;
                --numScheduled;
                out.push_back(e.id);
            }
        }
        if (wheelEntries != 0) {
            // Every undrained wheel entry's time is in
            // [base, base + width), so a walk capped at one full
            // revolution covers everything due.
            uint64_t stop = std::min(now, base + kWheelWidth - 1);
            for (uint64_t tb = base; tb <= stop; ++tb) {
                std::vector<Entry> &b = wheel[tb & kWheelMask];
                for (const Entry &e : b) {
                    --wheelEntries;
                    if (stored[e.id] == e.t) {
                        stored[e.id] = kUnscheduled;
                        --numScheduled;
                        out.push_back(e.id);
                    }
                }
                b.clear();
            }
        }
        if (base <= now)
            base = now + 1;
    }

    /**
     * Validated peek: the earliest pending (time, id), dropping stale
     * hints on the way.  Returns false when nothing is pending.
     */
    bool
    peekMin(uint64_t &t_out, uint32_t &id_out)
    {
        while (!heap.empty() &&
               stored[heap.front().id] != heap.front().t) {
            std::pop_heap(heap.begin(), heap.end(), entryAfter);
            heap.pop_back();
        }
        bool have = !heap.empty();
        uint64_t best_t = have ? heap.front().t : kUnscheduled;
        uint32_t best_id = have ? heap.front().id : 0;

        if (wheelEntries != 0) {
            for (uint64_t tb = base;
                 tb < base + kWheelWidth && tb <= best_t; ++tb) {
                std::vector<Entry> &b = wheel[tb & kWheelMask];
                if (b.empty())
                    continue;
                std::erase_if(b, [&](const Entry &e) {
                    if (stored[e.id] != e.t) {
                        --wheelEntries;
                        return true;
                    }
                    return false;
                });
                if (!b.empty()) {
                    // Full (t, id) order: the smallest id in the
                    // bucket, beating an equal-time heap entry too.
                    uint32_t bucket_min = b.front().id;
                    for (const Entry &e : b)
                        bucket_min = std::min(bucket_min, e.id);
                    if (tb < best_t || bucket_min < best_id) {
                        have = true;
                        best_t = tb;
                        best_id = bucket_min;
                    }
                    break;
                }
            }
        }
        if (!have)
            return false;
        t_out = best_t;
        id_out = best_id;
        return true;
    }

  private:
    struct Entry
    {
        uint64_t t;
        uint32_t id;
    };

    /** Min-heap order with id tie-break, for deterministic pops. */
    static bool
    entryAfter(const Entry &a, const Entry &b)
    {
        return a.t > b.t || (a.t == b.t && a.id > b.id);
    }

    static constexpr uint64_t kWheelWidth = 64;
    static constexpr uint64_t kWheelMask = kWheelWidth - 1;

    void
    insert(uint32_t id, uint64_t t)
    {
        if (t >= base && t - base < kWheelWidth) {
            wheel[t & kWheelMask].push_back(Entry{t, id});
            ++wheelEntries;
        } else {
            // Past the horizon -- or, defensively, in the past, where
            // the heap path still surfaces it on the next popDue.
            heap.push_back(Entry{t, id});
            std::push_heap(heap.begin(), heap.end(), entryAfter);
        }
    }

    /** Single source of truth: the pending time per id. */
    std::vector<uint64_t> stored;
    /** Near events; every undrained entry's t is in [base, base+W). */
    std::vector<std::vector<Entry>> wheel;
    size_t wheelEntries = 0;   ///< entries in the wheel, stale included
    /** Far events, min-heap by (t, id); stale hints dropped lazily. */
    std::vector<Entry> heap;
    uint64_t base = 0;
    size_t numScheduled = 0;
};

} // namespace mdp

#endif // MDP_BASE_EVENT_FRONTIER_HH
